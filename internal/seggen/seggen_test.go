package seggen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/segstore"
	"repro/internal/study"
	"repro/internal/world"
)

// TestOriginRoundTrip pins the dataset identity — the literal every
// manifest of the studyd gates carries, which bench/corpus.go's frozen
// copy also spells — and that a reader holding only the origin recovers
// the segment-ID scheme the writer used.
func TestOriginRoundTrip(t *testing.T) {
	cfg := world.Config{Seed: 7, Groups: 8, Days: 2, SessionsPerGroupWindow: 10}
	origin := Origin(cfg, nil)
	if want := `edgesim seed=7 groups=8 days=2 spw=10 plan=""`; origin != want {
		t.Fatalf("Origin = %s, want %s", origin, want)
	}
	plan, err := faults.ParsePlan("seed=7;fail-group=2;retries=4")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(plan, cfg.Seed)
	if got, want := Origin(cfg, inj), `edgesim seed=7 groups=8 days=2 spw=10 plan="`+inj.Plan().Spec()+`"`; got != want {
		t.Errorf("Origin under a plan = %s, want %s", got, want)
	}
	for _, days := range []int{1, 2, 30} {
		cfg.Days = days
		if got, want := OriginChunksPerGroup(Origin(cfg, nil)), ChunksPerGroup(cfg); got != want {
			t.Errorf("days=%d: OriginChunksPerGroup = %d, ChunksPerGroup = %d", days, got, want)
		}
	}
	if got := OriginChunksPerGroup("segcat import"); got != 1 {
		t.Errorf("unreadable origin: %d chunks per group, want 1", got)
	}
	for _, c := range []struct {
		start time.Duration
		want  int
	}{{-time.Second, 0}, {0, 0}, {25 * time.Hour, 1}, {72 * time.Hour, 1}} {
		if got := ChunkOf(c.start, 2); got != c.want {
			t.Errorf("ChunkOf(%v, 2) = %d, want %d", c.start, got, c.want)
		}
	}
}

// TestOwnedGroupsPartition: the fleet's shares must cover every group
// exactly once at any fleet size — the precondition for the merged
// spool being byte-identical to a single-process dataset — and an
// empty share must be non-nil (nil means "every group" to Run, which
// would turn a PoP with no traffic into a full duplicate generator).
func TestOwnedGroupsPartition(t *testing.T) {
	w := world.New(world.Config{Seed: 7, Groups: 23, Days: 1, SessionsPerGroupWindow: 2})
	for pops := 1; pops <= 6; pops++ {
		seen := map[int]int{}
		for pop := 0; pop < pops; pop++ {
			owned := OwnedGroups(w, pop, pops)
			if owned == nil {
				t.Fatalf("pops=%d pop=%d: nil share; empty shares must stay non-nil", pops, pop)
			}
			for _, gi := range owned {
				seen[gi]++
			}
			// Sharding follows the serving PoP: a group's whole PoP rides
			// with it, mirroring the paper's per-PoP collectors.
			for _, gi := range owned {
				for gj := range w.Groups {
					if w.Groups[gj].PoP == w.Groups[gi].PoP && seen[gj] == 0 && pop == pops-1 {
						t.Fatalf("pops=%d: group %d shares PoP %s with owned group %d but is unassigned", pops, gj, w.Groups[gj].PoP, gi)
					}
				}
			}
		}
		for gi := range w.Groups {
			if seen[gi] != 1 {
				t.Fatalf("pops=%d: group %d assigned %d times, want exactly once", pops, gi, seen[gi])
			}
		}
	}
}

// TestRunEmptyShare: a PoP that owns nothing still commits a valid,
// empty dataset — its shipping phase needs the manifest's origin for
// the hello/done handshake.
func TestRunEmptyShare(t *testing.T) {
	dir := t.TempDir()
	w := world.New(world.Config{Seed: 7, Groups: 5, Days: 1, SessionsPerGroupWindow: 2})
	res, err := Run(context.Background(), Options{
		World: w, Dir: dir, Origin: "test origin", Groups: []int{},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Written != 0 {
		t.Fatalf("empty share wrote %d samples", res.Written)
	}
	r, err := segstore.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { _ = r.Close() }() // read-only dataset; nothing to flush
	if man := r.Manifest(); len(man.Segments) != 0 || man.Origin != "test origin" {
		t.Fatalf("manifest = %d segments, origin %q", len(man.Segments), man.Origin)
	}
}

// TestStageMetricsAtOneWorker: a one-worker run shows on /metrics the
// world's ordered hand-off — the groups simulated and waiting on the
// writer, and the window — and a completed span of each timed stage of
// the writer per group, each one observation of that stage's per-group
// histogram: the histogram's count is the group count and its sum the
// span total.
func TestStageMetricsAtOneWorker(t *testing.T) {
	w := world.New(world.Config{Seed: 7, Groups: 5, Days: 1, SessionsPerGroupWindow: 2})
	reg := obs.NewRegistry()
	w.Instrument(reg)
	if _, err := Run(context.Background(), Options{
		World: w, Dir: t.TempDir(), Origin: "test origin", Reg: reg, Workers: 1,
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	value := func(series string) (float64, bool) {
		for _, line := range strings.Split(expo.String(), "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				return f, err == nil
			}
		}
		return 0, false
	}
	if n, ok := value(`pipeline_queue_depth{stage="generate"}`); !ok || n != 0 {
		t.Errorf(`pipeline_queue_depth{stage="generate"} = %v (present %v), want 0 once Run returns`, n, ok)
	}
	if n, _ := value(`pipeline_queue_capacity{stage="generate"}`); n != float64(pipeline.Window(1)) {
		t.Errorf(`pipeline_queue_capacity{stage="generate"} = %v, want the one-worker window, %d`, n, pipeline.Window(1))
	}
	for _, stage := range []string{"encode", "write"} {
		for _, gauge := range []string{"pipeline_queue_depth", "pipeline_queue_capacity"} {
			if series := fmt.Sprintf("%s{stage=%q}", gauge, stage); strings.Contains(expo.String(), series) {
				t.Errorf("/metrics shows %s, a queue the writer does not have", series)
			}
		}
		series := fmt.Sprintf(`edgesim_stage_seconds_count{stage=%q,parent="edgesim"}`, stage)
		if n, _ := value(series); n != float64(len(w.Groups)) {
			t.Errorf("%s = %v, want one span per group (%d)", series, n, len(w.Groups))
		}
		series = fmt.Sprintf(`edgesim_group_stage_seconds_count{stage=%q}`, stage)
		if n, _ := value(series); n != float64(len(w.Groups)) {
			t.Errorf("%s = %v, want one observation per group (%d)", series, n, len(w.Groups))
		}
		total, _ := value(fmt.Sprintf(`edgesim_stage_seconds_total{stage=%q,parent="edgesim"}`, stage))
		sum, _ := value(fmt.Sprintf(`edgesim_group_stage_seconds_sum{stage=%q}`, stage))
		if total <= 0 || math.Abs(sum-total) > 1e-6*total {
			t.Errorf("%s histogram sum %v, span total %v: want equal within 1e-6", stage, sum, total)
		}
	}
}

// TestRunCancelMidGroupStopsDrawers: a cancel that lands inside a
// group's simulation stops a one-worker write at that group's next
// window with the cancel's cause. No segment of that group or a later
// one is committed, and no workload drawer goroutine is left running.
func TestRunCancelMidGroupStopsDrawers(t *testing.T) {
	cfg := world.Config{Seed: 4, Groups: 4, Days: 1, SessionsPerGroupWindow: 4}
	w := world.New(cfg)
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	stopped := errors.New("stop mid-group")
	const cancelAt = 2*world.WindowsPerDay + 10 // group 2, window 10
	begun := 0                                  // windows begun; one generator goroutine at one worker
	w.PoPDown = func(string, int) bool {
		begun++
		if begun == cancelAt {
			cancel(stopped)
		}
		return false
	}
	dir := t.TempDir()
	if _, err := Run(ctx, Options{World: w, Dir: dir, Origin: "test origin", Workers: 1}); !errors.Is(err, stopped) {
		t.Fatalf("Run: %v, want the cancel's cause", err)
	}
	if begun > cancelAt+1 {
		t.Errorf("%d windows begun after a cancel at window %d: the group ran on", begun, cancelAt)
	}
	r, err := segstore.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { _ = r.Close() }() // read-only dataset; nothing to flush
	for _, s := range r.Manifest().Segments {
		if s.ID >= 2*ChunksPerGroup(cfg) {
			t.Errorf("segment %d of a cancelled group was committed", s.ID)
		}
	}
	// A stopped drawer has returned before Run does, but its goroutine
	// may linger an instant; one that never stopped stays.
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		buf := make([]byte, 1<<20)
		n := strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by repro/internal/world.startDrawers")
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d workload drawers left after Run returned", n)
		}
	}
}

// TestTruncateLedgerMatchesStudy: the study's world source and Run apply
// one batch fate, cut in windows, so for one world and a plan without
// the sink keys — the surface only one of them has — they keep the same
// ledger, what truncation cut included.
func TestTruncateLedgerMatchesStudy(t *testing.T) {
	cfg := world.Config{Seed: 11, Groups: 8, Days: 2, SessionsPerGroupWindow: 6}
	plan, err := faults.ParsePlan("seed=3;truncate=0.5;truncate-frac=0.3;corrupt=0.1;fail-group=1;outage=fra:10-30")
	if err != nil {
		t.Fatal(err)
	}
	st, err := study.RunCtx(context.Background(), cfg, study.Options{Plan: plan, Workers: 2})
	if err != nil {
		t.Fatalf("study: %v", err)
	}
	w := world.New(cfg)
	inj := faults.NewInjector(plan, cfg.Seed)
	w.PoPDown = inj.Outage
	res, err := Run(context.Background(), Options{World: w, Dir: t.TempDir(), Origin: "test origin", Injector: inj, Workers: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Coverage.SamplesLostTruncated == 0 {
		t.Fatalf("the plan truncated nothing: %+v", res.Coverage)
	}
	if !reflect.DeepEqual(res.Coverage, st.Coverage) {
		t.Errorf("ledgers differ:\n Run   %+v\n study %+v", res.Coverage, st.Coverage)
	}
}

// TestRunFailFastDropCommitsEveryGroupBefore: under fail-fast a dropped
// group stops the run when the writer reaches it, in group order, so
// the dataset holds exactly the groups before it, whole, at any worker
// count — not a prefix that depends on how far the writer had got when
// a generator drew the fate.
func TestRunFailFastDropCommitsEveryGroupBefore(t *testing.T) {
	cfg := world.Config{Seed: 3, Groups: 8, Days: 2, SessionsPerGroupWindow: 12}
	plan, err := faults.ParsePlan("seed=4;corrupt=0.15")
	if err != nil {
		t.Fatal(err)
	}
	const dropped = 5 // the plan's first dropped group in this world
	clean := t.TempDir()
	if _, err := Run(context.Background(), Options{World: world.New(cfg), Dir: clean, Origin: "test origin"}); err != nil {
		t.Fatal(err)
	}
	segments := func(dir string) []segstore.SegmentMeta {
		r, err := segstore.Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer func() { _ = r.Close() }() // read-only dataset; nothing to flush
		return r.Manifest().Segments
	}
	var want []segstore.SegmentMeta
	for _, s := range segments(clean) {
		if s.ID < dropped*ChunksPerGroup(cfg) {
			want = append(want, s)
		}
	}
	for _, workers := range []int{1, 4} {
		for range 3 {
			dir := t.TempDir()
			_, err := Run(context.Background(), Options{World: world.New(cfg), Dir: dir, Origin: "test origin",
				Workers: workers, Injector: faults.NewInjector(plan, cfg.Seed), FailFast: true})
			var fe *faults.FaultError
			if !errors.As(err, &fe) || fe.Surface != faults.SurfaceBatch || !strings.HasSuffix(fe.Key, fmt.Sprintf("%04d", dropped)) {
				t.Fatalf("workers=%d: Run returned %v, want group %d's batch fault", workers, err, dropped)
			}
			if got := segments(dir); !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d: %d segments committed, want groups 0 to %d whole, the clean run's %d", workers, len(got), dropped-1, len(want))
			}
		}
	}
}

// TestRunBoundedBySlowGroup: no day begins more than the window —
// pipeline.Window of the generators — and one day a generator past the
// last one the writer took. Every group's write is slowed by a
// transient fault and its retry backoff (one group a day, so each day
// delivered is written), so the writer, not the simulation, sets the
// pace: the days begun and not yet delivered never exceed the one being
// written, the window's and one a generator, and reach that, so the
// other generators keep simulating while a group is written. The run
// then commits every group.
func TestRunBoundedBySlowGroup(t *testing.T) {
	cfg := world.Config{Seed: 6, Groups: 24, Days: 1, SessionsPerGroupWindow: 2}
	const workers = 3
	plan, err := faults.ParsePlan("seed=1;sink-transient=1;sink-streak=1;retry-base=50ms")
	if err != nil {
		t.Fatal(err)
	}
	w := world.New(cfg)
	reg := obs.NewRegistry()
	w.Instrument(reg)
	var begun atomic.Int64 // days past their first window's hook
	w.PoPDown = func(_ string, win int) bool {
		if win%world.WindowsPerDay == 0 {
			begun.Add(1)
		}
		return false
	}
	delivered := reg.Span(obs.L("world_stage_seconds", "stage", "emit"), "world")
	dir := t.TempDir()
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), Options{World: w, Dir: dir, Origin: "test origin", Workers: workers,
			Injector: faults.NewInjector(plan, cfg.Seed)})
		done <- err
	}()
	bound := int64(1 + pipeline.Window(workers) + workers)
	var most int64
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		case <-time.After(time.Millisecond):
		}
		// Begun is read first: a day delivered in between only lowers
		// the difference.
		n := begun.Load()
		most = max(most, n-delivered.Count())
	}
	if most != bound {
		t.Errorf("at most %d days were begun and not yet delivered, want %d: the one being written, the window's %d and one a generator",
			most, bound, pipeline.Window(workers))
	}
	r, err := segstore.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { _ = r.Close() }() // read-only dataset; nothing to flush
	groups := map[int]bool{}
	for _, s := range r.Manifest().Segments {
		groups[s.ID/ChunksPerGroup(cfg)] = true
	}
	if len(groups) != cfg.Groups {
		t.Errorf("%d groups committed, want %d", len(groups), cfg.Groups)
	}
}
