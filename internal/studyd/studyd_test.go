package studyd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/seggen"
	"repro/internal/segstore"
	"repro/internal/study"
	"repro/internal/world"
)

// testCfg is the worldlet every daemon test ingests: two days so chunk
// closes happen mid-run (not only at drain), enough groups for fault
// plans to quarantine some and keep others.
var testCfg = world.Config{Seed: 7, Groups: 6, Days: 2, SessionsPerGroupWindow: 4}

func testOrigin(plan *faults.Plan) string {
	return fmt.Sprintf("edgesim seed=%d groups=%d days=%d spw=%g plan=%q",
		testCfg.Seed, testCfg.Groups, testCfg.Days, testCfg.SessionsPerGroupWindow, plan.Spec())
}

// goldenDataset writes the batch-pipeline dataset for testCfg under
// spec — the bytes every daemon run must reproduce — and returns the
// batch writer's ledger.
func goldenDataset(t testing.TB, dir, spec string) *faults.Coverage {
	t.Helper()
	plan, err := faults.ParsePlan(spec)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	w := world.New(testCfg)
	inj := faults.NewInjector(plan, testCfg.Seed)
	if inj != nil {
		w.PoPDown = inj.Outage
	}
	res, err := seggen.Run(context.Background(), seggen.Options{
		World: w, Dir: dir, Origin: testOrigin(inj.Plan()), Injector: inj,
	})
	if err != nil {
		t.Fatalf("golden generate: %v", err)
	}
	return res.Coverage
}

// liveDaemon builds a live-mode daemon over a fresh world for spec.
func liveDaemon(t testing.TB, dir, spec string) *Daemon {
	t.Helper()
	plan, err := faults.ParsePlan(spec)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	w := world.New(testCfg)
	inj := faults.NewInjector(plan, testCfg.Seed)
	if inj != nil {
		w.PoPDown = inj.Outage
	}
	d, err := New(Options{
		Dir: dir, Origin: testOrigin(inj.Plan()),
		World: w, Injector: inj, Reg: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func dirsEqual(t *testing.T, want, got string) {
	t.Helper()
	names := func(dir string) []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", dir, err)
		}
		out := make([]string, 0, len(ents))
		for _, e := range ents {
			out = append(out, e.Name())
		}
		return out
	}
	wn, gn := names(want), names(got)
	if fmt.Sprint(wn) != fmt.Sprint(gn) {
		t.Fatalf("file sets differ:\n  want %v\n  got  %v", wn, gn)
	}
	for _, n := range wn {
		wb, err := os.ReadFile(filepath.Join(want, n))
		if err != nil {
			t.Fatal(err)
		}
		gb, err := os.ReadFile(filepath.Join(got, n))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, gb) {
			t.Errorf("%s differs: %d vs %d bytes", n, len(wb), len(gb))
		}
	}
}

func renderGolden(t testing.TB, dir string) []byte {
	t.Helper()
	res, err := study.FromSegments(context.Background(), dir, study.Options{})
	if err != nil {
		t.Fatalf("FromSegments(%s): %v", dir, err)
	}
	var buf bytes.Buffer
	res.WriteReport(&buf)
	body, _ := study.StripElapsed(buf.Bytes())
	return body
}

// get fetches a path from the daemon's handler and returns the body
// and the X-Cache state.
func get(t testing.TB, d *Daemon, path string) ([]byte, string) {
	t.Helper()
	rr := httptest.NewRecorder()
	d.Handler().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	if rr.Code != 200 {
		t.Fatalf("GET %s: %d %s", path, rr.Code, rr.Body.String())
	}
	return rr.Body.Bytes(), rr.Result().Header.Get("X-Cache")
}

// TestDaemonByteIdenticalToBatch is the keystone invariant: a drained
// live-mode daemon's spool is byte-identical to the batch dataset for
// the same flags — and its served /report to the golden batch report —
// at every worker count, clean and under fault plans. Both producers
// drive the same chunk writer (seggen.GroupWriter) under the same
// faults.Guard, so their ledgers are equal too, entry for entry.
func TestDaemonByteIdenticalToBatch(t *testing.T) {
	const (
		chaos = "seed=7;sink-transient=0.01;sink-permanent=0.001;truncate=0.1;corrupt=0.03;fail-group=2;outage=fra:10-30;retries=4;retry-base=50us"
		// The plan seeds below are picked so that, on testCfg's six groups,
		// the write surface really fires: one group draws a permanent write
		// fate, at least one a recovered transient.
		writeFaults   = "seed=2713;sink-transient=0.2;sink-permanent=0.0002;fail-group=5;outage=fra:10-30;retries=4;retry-base=1us"
		sinkPermanent = "seed=33772;sink-transient=0.2;sink-permanent=0.0002;retries=4;retry-base=1us"
		// A truncated group loses its windows from 192 − round(0.5 × 192) =
		// 96 on, the second chunk's edge, or from 192 − round(0.3 × 192) =
		// 134 on, inside the second chunk.
		truncEdge   = "seed=3;truncate=0.5;corrupt=0.1;retries=4"
		truncInside = "seed=3;truncate=0.5;truncate-frac=0.3;retries=4"
	)
	for _, row := range []struct{ name, spec string }{
		{"false", ""},
		{"true", chaos},
		{"write-faults", writeFaults},
		{"sink-permanent", sinkPermanent},
		{"truncate-edge", truncEdge},
		{"truncate-inside", truncInside},
	} {
		golden := t.TempDir()
		goldenCov := goldenDataset(t, golden, row.spec)
		switch row.spec {
		case writeFaults, sinkPermanent:
			reasons := map[string]bool{}
			for _, q := range goldenCov.Quarantined {
				reasons[q.Reason] = true
			}
			if !reasons["permanent write failure"] || goldenCov.TransientRecovered == 0 {
				t.Fatalf("plan %q fired no permanent or no recovered write fault in the batch writer: %+v", row.spec, goldenCov)
			}
		case truncEdge, truncInside:
			if goldenCov.BatchesTruncated == 0 || goldenCov.SamplesLostTruncated == 0 {
				t.Fatalf("plan %q truncated nothing in the batch writer: %+v", row.spec, goldenCov)
			}
		}
		report := renderGolden(t, golden)
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("plan=%s/workers=%d", row.name, workers), func(t *testing.T) {
				dir := t.TempDir()
				d := liveDaemon(t, dir, row.spec)
				if err := d.RunLive(context.Background(), workers); err != nil {
					t.Fatalf("RunLive: %v", err)
				}
				if !d.Drained() {
					t.Fatal("daemon not drained after RunLive")
				}
				dirsEqual(t, golden, dir)
				if got := d.Coverage(); !reflect.DeepEqual(got, goldenCov) {
					t.Errorf("daemon ledger differs from the batch writer's:\n got %+v\nwant %+v", got, goldenCov)
				}
				body, _ := get(t, d, "/report")
				if !bytes.Equal(body, report) {
					t.Errorf("served /report differs from golden batch report:\n--- golden\n%s\n--- served\n%s", report, body)
				}
			})
		}
	}
}

// TestDaemonResumesCommittedChunks reruns a drained daemon's flags over
// its spool: every chunk is already committed, the rerun recognises
// them, and the bytes do not change.
func TestDaemonResumesCommittedChunks(t *testing.T) {
	golden := t.TempDir()
	goldenDataset(t, golden, "")
	dir := t.TempDir()
	for run := 0; run < 2; run++ {
		d := liveDaemon(t, dir, "")
		if err := d.RunLive(context.Background(), 2); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	dirsEqual(t, golden, dir)
}

// TestRunLiveCancelStopsRetries cancels a live run while a write retry
// waits out its backoff. Every group's write fate fails transiently up
// to eight times before it recovers: the chunk close of the twelve
// groups retries 50 times, each backoff at the policy's 50 ms cap,
// 2.6 s in all. RunLive's context must reach them, and the cancel
// return its cause within a second instead of after the retries left in
// the close. A rerun then resumes the spool to the golden bytes. The
// rerun's plan differs only in its base backoff, which decides no
// outcome, so it keeps the spool's origin and runs in a moment.
func TestRunLiveCancelStopsRetries(t *testing.T) {
	const (
		slow   = "sink-transient=1;sink-streak=8;retries=12;retry-base=1s"
		fast   = "sink-transient=1;sink-streak=8;retries=12;retry-base=1us"
		origin = "retry-cancel-test"
	)
	cfg := world.Config{Seed: 38, Groups: 12, Days: 1, SessionsPerGroupWindow: 2}
	injector := func(spec string) *faults.Injector {
		plan, err := faults.ParsePlan(spec)
		if err != nil {
			t.Fatalf("plan: %v", err)
		}
		return faults.NewInjector(plan, cfg.Seed)
	}
	daemon := func(dir, spec string) *Daemon {
		d, err := New(Options{Dir: dir, Origin: origin, World: world.New(cfg), Injector: injector(spec), Reg: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return d
	}
	golden := t.TempDir()
	if _, err := seggen.Run(context.Background(), seggen.Options{
		World: world.New(cfg), Dir: golden, Origin: origin, Injector: injector(fast),
	}); err != nil {
		t.Fatalf("golden generate: %v", err)
	}

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			d := daemon(dir, slow)
			stop := errors.New("operator stop")
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			done := make(chan struct{})
			cancelled := make(chan time.Time, 1)
			go func() {
				// The first retry is booked before its backoff begins.
				for d.Coverage().RetriesSpent == 0 {
					select {
					case <-done:
						return
					case <-time.After(time.Millisecond):
					}
				}
				cancelled <- time.Now()
				cancel(stop)
			}()
			err := d.RunLive(ctx, workers)
			returned := time.Now()
			close(done)
			if !errors.Is(err, stop) {
				t.Fatalf("RunLive returned %v, want the cancel's cause", err)
			}
			if wait := returned.Sub(<-cancelled); wait > time.Second {
				t.Errorf("RunLive returned %v after the cancel, want within 1s", wait)
			}

			if err := daemon(dir, fast).RunLive(context.Background(), workers); err != nil {
				t.Fatalf("rerun: %v", err)
			}
			dirsEqual(t, golden, dir)
		})
	}
}

// TestDaemonAcceptsTruncatePlans: a plan that truncates every group is
// a plan like any other. A stream knows the cut before a group's first
// window, so the daemon takes the plan and drains into the batch
// writer's spool and ledger: each group keeps its windows below 134 and
// books the rest as truncated.
func TestDaemonAcceptsTruncatePlans(t *testing.T) {
	const spec = "truncate=1;truncate-frac=0.3"
	golden := t.TempDir()
	want := goldenDataset(t, golden, spec)
	if want.BatchesTruncated != testCfg.Groups {
		t.Fatalf("the batch writer truncated %d groups, want all %d", want.BatchesTruncated, testCfg.Groups)
	}
	dir := t.TempDir()
	d := liveDaemon(t, dir, spec)
	if err := d.RunLive(context.Background(), 2); err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	dirsEqual(t, golden, dir)
	if got := d.Coverage(); !reflect.DeepEqual(got, want) {
		t.Errorf("daemon ledger differs from the batch writer's:\n got %+v\nwant %+v", got, want)
	}
	man, err := segstore.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	const cut = 192 - 58
	latest := 0
	for _, seg := range man.Segments {
		last := int(time.Duration(seg.StartMax) / world.WindowDuration)
		if last >= cut {
			t.Errorf("segment %d holds window %d, at or past the cut %d", seg.ID, last, cut)
		}
		latest = max(latest, last)
	}
	if latest < windowsPerChunk {
		t.Errorf("no segment holds a window of the second chunk, which the cut falls inside: the latest is %d", latest)
	}
}

// windowSample fabricates a minimal sample inside window win.
func windowSample(win int, off int64) sample.Sample {
	return sample.Sample{
		SessionID: uint64(win)<<32 | uint64(off),
		PoP:       "lhr", Prefix: "10.0.0.0/24", Country: "GB",
		Start: world.WindowDuration*time.Duration(win) + 1,
	}
}

// TestSealBoundaries pins the window-edge semantics: a sample exactly
// on a 15-minute boundary belongs to the LATER window (half-open
// windows), so sealing the earlier window never refuses it; a sample
// landing below the watermark is counted late and dropped without
// mutating the sealed window; a group that goes quiet simply stops
// contributing — no tombstone, no empty segment.
func TestSealBoundaries(t *testing.T) {
	dir := t.TempDir()
	d := liveDaemon(t, dir, "")

	// Window 0 gets one ordinary sample, then seals.
	if err := d.Ingest(0, 0, []sample.Sample{windowSample(0, 1)}, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Seal(0); err != nil {
		t.Fatal(err)
	}

	// A sample exactly on the boundary (Start == 15m) belongs to window
	// 1: not late, buffered.
	edge := sample.Sample{SessionID: 99, PoP: "lhr", Prefix: "10.0.0.0/24", Country: "GB",
		Start: world.WindowDuration}
	if err := d.Ingest(0, 1, []sample.Sample{edge}, 0); err != nil {
		t.Fatal(err)
	}
	if got := d.cLate.Value(); got != 0 {
		t.Fatalf("edge sample counted late: studyd_late_samples=%d", got)
	}

	// A sample below the watermark is late: counted, dropped, and the
	// sealed window's ledger stays frozen.
	before := d.winStats[0]
	late := sample.Sample{SessionID: 100, PoP: "lhr", Prefix: "10.0.0.0/24", Country: "GB",
		Start: world.WindowDuration - 1}
	if err := d.Ingest(0, 1, []sample.Sample{late}, 0); err != nil {
		t.Fatal(err)
	}
	if got := d.cLate.Value(); got != 1 {
		t.Fatalf("studyd_late_samples=%d, want 1", got)
	}
	if d.winStats[0] != before {
		t.Fatalf("sealed window mutated: %+v -> %+v", before, d.winStats[0])
	}
	if !d.winStats[0].Sealed {
		t.Fatal("window 0 not marked sealed")
	}
	if d.winStats[1].Late != 1 {
		t.Fatalf("late sample not ledgered on its arrival window: %+v", d.winStats[1])
	}

	// Out-of-order seals are refused: the watermark only advances.
	if err := d.Seal(0); err == nil {
		t.Fatal("re-sealing window 0 succeeded")
	}
	if err := d.Seal(2); err == nil {
		t.Fatal("sealing window 2 before 1 succeeded")
	}

	// Groups 1..n stay quiet; seal everything and drain. Quiet groups
	// leave no trace in the spool — no segments, no tombstones.
	for win := 1; win < testCfg.Windows(); win++ {
		if err := d.Seal(win); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	man, err := segstore.LoadManifest(d.opt.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Tombstones) != 0 {
		t.Fatalf("quiet groups grew tombstones: %+v", man.Tombstones)
	}
	for _, seg := range man.Segments {
		if g := seg.ID / d.cpg; g != 0 {
			t.Fatalf("quiet group %d has a segment (id %d)", g, seg.ID)
		}
	}
}

// TestCacheSingleRevalidation is the cache-correctness gate: N
// concurrent readers of one stale key all get a complete response
// instantly, and the re-aggregation behind them runs at most once.
func TestCacheSingleRevalidation(t *testing.T) {
	c := newSWRCache(8, nil)
	var computes atomic.Int64
	v1 := []byte("version-one")
	v2 := []byte("version-two")

	// Prime at version 1.
	body, _, state, err := c.Serve("k", 1, func() ([]byte, error) {
		computes.Add(1)
		return v1, nil
	})
	if err != nil || state != "miss" || !bytes.Equal(body, v1) {
		t.Fatalf("prime: %q %s %v", body, state, err)
	}

	// Bump the version; hammer the stale entry. Every reader must get a
	// complete body (old or new, never torn/empty), and the rebuild must
	// run exactly once.
	computes.Store(0)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _, _, err := c.Serve("k", 2, func() ([]byte, error) {
				computes.Add(1)
				<-release // keep the rebuild in flight while readers pile up
				return v2, nil
			})
			if err != nil {
				t.Errorf("Serve: %v", err)
				return
			}
			if !bytes.Equal(body, v1) && !bytes.Equal(body, v2) {
				t.Errorf("torn response: %q", body)
			}
		}()
	}
	close(release)
	wg.Wait()
	// The rebuild is detached: readers return without waiting for it, so
	// give it a moment to run before counting.
	for i := 0; i < 2000 && computes.Load() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("stale key revalidated %d times, want exactly 1", n)
	}

	// After the rebuild lands, version 2 is a fresh hit.
	for i := 0; i < 2000; i++ {
		body, _, state, _ = c.Serve("k", 2, func() ([]byte, error) {
			t.Error("fresh entry recomputed")
			return nil, nil
		})
		if state == "hit" && bytes.Equal(body, v2) {
			if n := computes.Load(); n != 1 {
				t.Fatalf("stale key revalidated %d times, want exactly 1", n)
			}
			return
		}
		time.Sleep(time.Millisecond) // the detached rebuild installs asynchronously
	}
	t.Fatalf("rebuilt entry never became a fresh hit: %q %s", body, state)
}

// TestCacheMissSingleflight: concurrent first requests for one key
// share a single computation.
func TestCacheMissSingleflight(t *testing.T) {
	c := newSWRCache(8, nil)
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(first bool) {
			defer wg.Done()
			if !first {
				<-started
			}
			body, _, _, err := c.Serve("k", 1, func() ([]byte, error) {
				computes.Add(1)
				close(started)
				<-release
				return []byte("body"), nil
			})
			if err != nil || string(body) != "body" {
				t.Errorf("Serve: %q %v", body, err)
			}
		}(i == 0)
	}
	go func() { <-started; close(release) }()
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("miss computed %d times, want 1", n)
	}
}

// TestCacheErrorsNotCached: a failed compute propagates to its waiters
// and is forgotten — the next request recomputes.
func TestCacheErrorsNotCached(t *testing.T) {
	c := newSWRCache(8, nil)
	wantErr := fmt.Errorf("spool on fire")
	if _, _, _, err := c.Serve("k", 1, func() ([]byte, error) { return nil, wantErr }); err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	body, _, state, err := c.Serve("k", 1, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || state != "miss" || string(body) != "ok" {
		t.Fatalf("retry after error: %q %s %v", body, state, err)
	}
}

// TestCacheEviction: the LRU bound holds and evicts the coldest key.
func TestCacheEviction(t *testing.T) {
	c := newSWRCache(2, nil)
	mk := func(k string) {
		if _, _, _, err := c.Serve(k, 1, func() ([]byte, error) { return []byte(k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	mk("a")
	mk("b")
	mk("c") // evicts a
	if c.Len() != 2 {
		t.Fatalf("len=%d, want 2", c.Len())
	}
	_, _, state, _ := c.Serve("b", 1, func() ([]byte, error) { return []byte("b"), nil })
	if state != "hit" {
		t.Fatalf("warm key evicted (state %s)", state)
	}
	_, _, state, _ = c.Serve("a", 1, func() ([]byte, error) { return []byte("a"), nil })
	if state != "miss" {
		t.Fatalf("cold key survived eviction (state %s)", state)
	}
}

// TestHandlerCacheStates drives /report through the daemon's real
// handler: first fetch misses, second hits, a version bump serves
// stale then converges to a fresh hit — and every body is the same
// bytes (the spool did not actually change).
func TestHandlerCacheStates(t *testing.T) {
	dir := t.TempDir()
	d := liveDaemon(t, dir, "")
	if err := d.RunLive(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	b1, s1 := get(t, d, "/report")
	if s1 != "miss" {
		t.Fatalf("first fetch X-Cache=%s, want miss", s1)
	}
	b2, s2 := get(t, d, "/report")
	if s2 != "hit" || !bytes.Equal(b1, b2) {
		t.Fatalf("second fetch X-Cache=%s (want hit), bodies equal=%t", s2, bytes.Equal(b1, b2))
	}
	d.BumpVersion()
	b3, s3 := get(t, d, "/report")
	if s3 != "stale" || !bytes.Equal(b1, b3) {
		t.Fatalf("post-bump fetch X-Cache=%s (want stale), bodies equal=%t", s3, bytes.Equal(b1, b3))
	}
	for i := 0; i < 500; i++ {
		b, s := get(t, d, "/report")
		if s == "hit" {
			if !bytes.Equal(b1, b) {
				t.Fatal("revalidated body differs for an unchanged spool")
			}
			return
		}
		time.Sleep(5 * time.Millisecond) // the rebuild re-aggregates the spool
	}
	t.Fatal("report never revalidated to a fresh hit")
}

// TestFoldAndCacheGauges: studyd_folds_inflight counts the filtered
// folds running — between one and the number of concurrent distinct
// queries while they run, none afterwards — and
// studyd_report_cache_entries counts the distinct keys served.
func TestFoldAndCacheGauges(t *testing.T) {
	dir := t.TempDir()
	goldenDataset(t, dir, "")
	reg := obs.NewRegistry()
	d, err := New(Options{Dir: dir, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	folds := reg.Gauge("studyd_folds_inflight")

	const n = 4
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rr := httptest.NewRecorder()
			d.Handler().ServeHTTP(rr, httptest.NewRequest("GET", fmt.Sprintf("/report?from=%dh", i+1), nil))
			if rr.Code != 200 {
				t.Errorf("filtered report %d: %d %s", i, rr.Code, rr.Body.String())
			}
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	close(start)
	peak := 0.0
	for running := true; running; {
		select {
		case <-finished:
			running = false
		default:
			peak = max(peak, folds.Value())
			runtime.Gosched()
		}
	}
	if peak < 1 || peak > n {
		t.Fatalf("studyd_folds_inflight peaked at %v over %d concurrent filtered reports, want 1..%d", peak, n, n)
	}
	if v := folds.Value(); v != 0 {
		t.Fatalf("studyd_folds_inflight = %v after every report returned, want 0", v)
	}

	get(t, d, "/report?from=1h") // a hit: no new key
	get(t, d, "/report")
	if got := reg.Snapshot()["studyd_report_cache_entries"]; got != float64(n+1) {
		t.Fatalf("studyd_report_cache_entries = %v after %d distinct keys", got, n+1)
	}
}

// TestRepeatedFilterValuesShareOneEntry: a whitelist that names a
// value twice, or in another order, is the query that names each value
// once, so it is served from that query's cache entry, not folded and
// cached again.
func TestRepeatedFilterValuesShareOneEntry(t *testing.T) {
	dir := t.TempDir()
	goldenDataset(t, dir, "")
	reg := obs.NewRegistry()
	d, err := New(Options{Dir: dir, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	want, state := get(t, d, "/report?country=US,GB&pop=fra")
	if state != "miss" {
		t.Fatalf("first filtered fetch X-Cache=%s, want miss", state)
	}
	for _, q := range []string{"country=GB,US&pop=fra", "country=US,GB,US&pop=fra,fra", "country=GB,GB,US&pop=fra"} {
		if got, state := get(t, d, "/report?"+q); state != "hit" || !bytes.Equal(got, want) {
			t.Errorf("/report?%s: X-Cache=%s (want hit), body equal=%t", q, state, bytes.Equal(got, want))
		}
	}
	if got := reg.Snapshot()["studyd_report_cache_entries"]; got != float64(1) {
		t.Errorf("studyd_report_cache_entries = %v, want 1", got)
	}
}

// TestFoldAdmission: cold filtered folds run one at a time, foldQueue
// more wait, and a request past them gets a 503 with Retry-After at
// once, counted in studyd_fold_rejected_total and never cached. First
// with the fold slot held, so that the queue fills for certain; then
// as eight distinct filtered reports at once, each of which gets a 200
// or a 503 while studyd_folds_inflight never exceeds one. The daemon
// serves every report afterwards.
func TestFoldAdmission(t *testing.T) {
	dir := t.TempDir()
	goldenDataset(t, dir, "")
	reg := obs.NewRegistry()
	d, err := New(Options{Dir: dir, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	folds, queue := reg.Gauge("studyd_folds_inflight"), reg.Gauge("studyd_fold_queue_depth")
	rejected := reg.Counter("studyd_fold_rejected_total")
	report := func(i int) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		d.Handler().ServeHTTP(rr, httptest.NewRequest("GET", fmt.Sprintf("/report?from=%dh", i+1), nil))
		if rr.Code != 200 && rr.Code != 503 {
			t.Errorf("filtered report %d: %d %s", i, rr.Code, rr.Body.String())
		}
		if rr.Code == 503 && rr.Header().Get("Retry-After") == "" {
			t.Errorf("filtered report %d: a 503 without Retry-After", i)
		}
		return rr
	}

	d.foldSlot <- struct{}{} // a fold is running
	var wg sync.WaitGroup
	for i := range foldQueue {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rr := report(i); rr.Code != 200 {
				t.Errorf("queued report %d: %d, want 200 once the fold ends", i, rr.Code)
			}
		}()
	}
	for queue.Value() != foldQueue {
		runtime.Gosched()
	}
	past := make(chan int, 1)
	go func() { past <- report(foldQueue).Code }()
	select {
	case code := <-past:
		if code != 503 {
			t.Fatalf("a report past a full queue: %d, want 503", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a report past a full queue still waits after 10 s, want a 503 at once")
	}
	if v := rejected.Value(); v != 1 {
		t.Fatalf("studyd_fold_rejected_total = %d after one refusal", v)
	}
	<-d.foldSlot
	wg.Wait()
	if rr := report(foldQueue); rr.Code != 200 || rr.Header().Get("X-Cache") != "miss" {
		t.Fatalf("the refused report again: %d %s, want a 200 computed afresh", rr.Code, rr.Header().Get("X-Cache"))
	}

	const n = 8
	codes := make([]int, n)
	start := make(chan struct{})
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			codes[i] = report(foldQueue + 1 + i).Code
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	close(start)
	peak := 0.0
	for running := true; running; {
		select {
		case <-finished:
			running = false
		default:
			peak = max(peak, folds.Value())
			runtime.Gosched()
		}
	}
	ok, refused := 0, 0
	for _, c := range codes {
		switch c {
		case 200:
			ok++
		case 503:
			refused++
		}
	}
	if ok == 0 || peak > 1 {
		t.Fatalf("%d distinct filtered reports at once: %d got 200, folds in flight peaked at %v; want at least one 200 and at most one fold", n, ok, peak)
	}
	if v := rejected.Value(); v != int64(1+refused) {
		t.Fatalf("studyd_fold_rejected_total = %d, want %d", v, 1+refused)
	}
	if v := queue.Value(); v != 0 {
		t.Fatalf("studyd_fold_queue_depth = %v with nothing waiting", v)
	}
	get(t, d, "/report")
	for i := range n {
		get(t, d, fmt.Sprintf("/report?from=%dh", foldQueue+2+i))
	}
}

// TestEndpoints sanity-checks the query surfaces over a drained run.
func TestEndpoints(t *testing.T) {
	dir := t.TempDir()
	d := liveDaemon(t, dir, "")
	if err := d.RunLive(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	body, _ := get(t, d, "/healthz")
	if !strings.Contains(string(body), `"state": "drained"`) {
		t.Fatalf("healthz: %s", body)
	}
	body, _ = get(t, d, "/groups")
	for gi := 0; gi < testCfg.Groups; gi++ {
		if !strings.Contains(string(body), fmt.Sprintf(`"group": %d`, gi)) {
			t.Fatalf("group %d missing from /groups: %s", gi, body)
		}
	}
	body, _ = get(t, d, "/windows")
	if !strings.Contains(string(body), fmt.Sprintf(`"watermark": %d`, testCfg.Windows())) {
		t.Fatalf("windows: %s", body)
	}
	// A filtered report parses and renders.
	if body, _ = get(t, d, "/report?from=24h&country=GB"); len(body) == 0 {
		t.Fatal("filtered report empty")
	}
	// Malformed filters are a 400, not a panic or a 500.
	rr := httptest.NewRecorder()
	d.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/report?from=banana", nil))
	if rr.Code != 400 {
		t.Fatalf("bad filter: %d", rr.Code)
	}
}

// TestGroupsRefusesInvalidManifest: /groups validates the spool
// manifest as segstore.Open does, so a manifest of another format or
// one listing a segment twice is a 500, not a rollup of bad entries.
func TestGroupsRefusesInvalidManifest(t *testing.T) {
	dir := t.TempDir()
	d := liveDaemon(t, dir, "")
	if err := d.RunLive(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	man, err := segstore.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	oldFormat, dup := *man, *man
	oldFormat.Format = "edgeseg/0"
	dup.Segments = append([]segstore.SegmentMeta{man.Segments[0]}, man.Segments...)
	for _, tc := range []struct {
		name string
		man  segstore.Manifest
	}{{"old format", oldFormat}, {"duplicate segment", dup}} {
		data, err := json.Marshal(tc.man)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segstore.ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rr := httptest.NewRecorder()
		d.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/groups", nil))
		if rr.Code != 500 {
			t.Errorf("%s: /groups answered %d, want 500: %s", tc.name, rr.Code, rr.Body)
		}
	}
}

// FuzzStudydQueryParams pins that no query string can panic the
// /report parameter parser, and that canonical keys are stable: two
// parses of the same values always agree.
func FuzzStudydQueryParams(f *testing.F) {
	f.Add("from=24h&to=48h&country=GB,US&pop=lhr")
	f.Add("from=-1h")
	f.Add("from=banana&to=&country=&pop=")
	f.Add("country=" + strings.Repeat("X,", 100))
	f.Add("from=9999999999999999999h")
	f.Fuzz(func(t *testing.T, raw string) {
		vals, err := url.ParseQuery(raw)
		if err != nil {
			t.Skip()
		}
		q, err := parseReportQuery(vals)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		q2, err2 := parseReportQuery(vals)
		if err2 != nil || q.Key() != q2.Key() {
			t.Fatalf("unstable parse: %q vs %q (%v)", q.Key(), q2.Key(), err2)
		}
	})
}

// BenchmarkStudydServe measures the serving fast paths: a fresh cache
// hit (the steady state) and a stale hit that triggers revalidation
// (the post-commit state) — the daemon must stay instant in both.
func BenchmarkStudydServe(b *testing.B) {
	dir := b.TempDir()
	d := liveDaemon(b, dir, "")
	if err := d.RunLive(context.Background(), 4); err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/report", nil)
	h := d.Handler()
	fetch := func() {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != 200 {
			b.Fatalf("GET /report: %d", rr.Code)
		}
		io.Copy(io.Discard, rr.Result().Body)
	}
	fetch() // prime

	b.Run("cache-hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fetch()
		}
	})
	b.Run("stale-revalidate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.BumpVersion() // every request sees a stale entry
			fetch()
		}
	})
	b.Run("cold-miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A never-seen key blocks on a full spool re-aggregation —
			// the cost the cache hides from every later reader.
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest("GET",
				fmt.Sprintf("/report?from=%dns", i+1), nil))
			if rr.Code != 200 {
				b.Fatalf("GET /report: %d", rr.Code)
			}
		}
	})
}
