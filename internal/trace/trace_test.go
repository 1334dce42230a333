package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// emitWorkload emits a fixed logical workload across n goroutines,
// each owning its own Buf: the partition of groups onto goroutines
// changes with n, the logical events do not.
func emitWorkload(r *Recorder, n int) {
	const groups = 12
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		buf := r.Buf()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for g := w; g < groups; g += n {
				track := GroupTrack(g)
				sp := buf.Begin(track, PhaseGen, -1, 0, "generate")
				for win := int32(0); win < 3; win++ {
					buf.Emit(Event{Track: track, Phase: PhaseGen, Win: win, Seq: uint64(win), Kind: KMark, Stage: "window", Value: 7})
				}
				sp.End(21)
				if g%5 == 0 {
					buf.Emit(Event{Track: track, Phase: PhaseBatch, Win: 1, Seq: 0, Kind: KFault, Stage: "batch", Detail: "truncated-batch"})
					buf.Loss(track, PhaseBatch, 1, 0, "batch", LossTruncated, 3)
				}
				buf.Emit(Event{Track: track, Phase: PhaseSeal, Win: -1, Seq: 0, Kind: KSeal, Stage: "seal", Value: 21})
			}
		}(w)
	}
	wg.Wait()
}

func renderTrace(t *testing.T, workers int) string {
	t.Helper()
	r := New(42)
	emitWorkload(r, workers)
	var b bytes.Buffer
	if err := r.Flush(&b); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return b.String()
}

func TestWorkerCountInvariance(t *testing.T) {
	one := renderTrace(t, 1)
	for _, w := range []int{2, 4, 7} {
		if got := renderTrace(t, w); got != one {
			t.Fatalf("trace at %d workers differs from 1 worker:\n--- 1\n%s\n--- %d\n%s", w, one, w, got)
		}
	}
	if !strings.HasPrefix(one, `{"trace":"edgetrace/v1"`) {
		t.Fatalf("missing header: %q", one[:60])
	}
}

func TestSeedChangesIDsNotOrder(t *testing.T) {
	a := New(1)
	b := New(2)
	emitWorkload(a, 2)
	emitWorkload(b, 2)
	ea, eb := a.Events(), b.Events()
	if len(ea) == 0 || len(ea) != len(eb) {
		t.Fatalf("event counts: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d differs across seeds: %+v vs %+v", i, ea[i], eb[i])
		}
		if ea[i].ID(a.Base()) == eb[i].ID(b.Base()) {
			t.Fatalf("event %d has the same ID under different seeds", i)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	r := New(9)
	emitWorkload(r, 3)
	var b bytes.Buffer
	if err := r.Flush(&b); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(&b)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Base != r.Base() {
		t.Fatalf("base: got %x want %x", f.Base, r.Base())
	}
	want := r.Events()
	if len(f.Events) != len(want) {
		t.Fatalf("events: got %d want %d", len(f.Events), len(want))
	}
	for i := range want {
		if f.Events[i] != want[i] {
			t.Fatalf("event %d: got %+v want %+v", i, f.Events[i], want[i])
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse(strings.NewReader("")); err == nil {
		t.Fatal("empty input parsed")
	}
	if _, err := Parse(strings.NewReader(`{"trace":"other/v9"}` + "\n")); err == nil {
		t.Fatal("wrong header parsed")
	}
	if _, err := Parse(strings.NewReader(`{"trace":"edgetrace/v1","base":"0"}` + "\n" + `{"k":"nope","t":"run"}` + "\n")); err == nil {
		t.Fatal("unknown kind parsed")
	}
}

func TestRingOverwriteCounts(t *testing.T) {
	r := New(7)
	r.SetBufCap(4)
	b := r.Buf()
	for i := 0; i < 10; i++ {
		b.Emit(Event{Track: TrackRun, Phase: PhaseRun, Seq: uint64(i), Kind: KMark, Stage: "m"})
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("dropped: got %d want 6", got)
	}
	if got := len(r.Events()); got != 4 {
		t.Fatalf("retained: got %d want 4", got)
	}
	var out bytes.Buffer
	if err := r.Flush(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"dropped":6`) {
		t.Fatalf("header missing drop count: %s", out.String()[:80])
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	if b := r.Buf(); b != nil {
		t.Fatal("nil recorder returned live buf")
	}
	var b *Buf
	if id := b.Emit(Event{Stage: "x"}); id != 0 {
		t.Fatalf("nil buf emitted id %d", id)
	}
	sp := b.Begin("t", PhaseGen, -1, 0, "stage")
	if id := sp.End(1); id != 0 {
		t.Fatalf("inert span returned id %d", id)
	}
	b.Loss("t", PhaseGen, -1, 0, "stage", LossOutage, 5)
	if err := r.Flush(nil); err != nil {
		t.Fatalf("nil recorder Flush: %v", err)
	}
	if got := r.Base(); got != 0 {
		t.Fatalf("nil base: %d", got)
	}
}

// TestDisabledPathAllocs is the acceptance gate: tracing disabled must
// cost zero allocations on the hot path.
func TestDisabledPathAllocs(t *testing.T) {
	var b *Buf
	e := Event{Track: "g/0001", Phase: PhaseIngest, Win: 3, Seq: 9, Kind: KMark, Stage: "sink", Value: 1}
	n := testing.AllocsPerRun(1000, func() {
		b.Emit(e)
		b.Loss("g/0001", PhaseIngest, 3, 9, "sink", LossQuarantined, 1)
	})
	if n != 0 {
		t.Fatalf("disabled path allocates %.1f/op", n)
	}
}

// TestEnabledSteadyStateAllocs: once the ring is at capacity, Emit
// must not allocate.
func TestEnabledSteadyStateAllocs(t *testing.T) {
	r := New(1)
	r.SetBufCap(64)
	b := r.Buf()
	e := Event{Track: "g/0001", Phase: PhaseIngest, Win: 3, Seq: 9, Kind: KMark, Stage: "sink", Value: 1}
	for i := 0; i < 64; i++ {
		b.Emit(e)
	}
	n := testing.AllocsPerRun(1000, func() { b.Emit(e) })
	if n != 0 {
		t.Fatalf("steady-state Emit allocates %.1f/op", n)
	}
}

func TestStagesAndCriticalPaths(t *testing.T) {
	r := New(5)
	emitWorkload(r, 2)
	var buf bytes.Buffer
	if err := r.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rows := Stages(f)
	var gen StageRow
	for _, row := range rows {
		if row.Stage == "generate" {
			gen = row
		}
	}
	if gen.Spans != 12 || gen.Samples != 12*21 {
		t.Fatalf("generate row: %+v", gen)
	}
	crit := CriticalPaths(f)
	if len(crit) != 12 {
		t.Fatalf("critical paths: got %d groups", len(crit))
	}
	// Groups 0,5,10 carry extra loss weight in window 1.
	for i := 0; i < 3; i++ {
		if crit[i].Win != 1 {
			t.Fatalf("heavy group %d picked window %d: %+v", i, crit[i].Win, crit[i])
		}
	}
	if len(crit[0].Steps) == 0 {
		t.Fatal("empty critical path")
	}
}

func TestCausesReconcile(t *testing.T) {
	r := New(11)
	b := r.Buf()
	b.Loss(GroupTrack(1), PhaseGen, 2, 0, "generate", LossOutage, 40)
	b.Loss(GroupTrack(2), PhaseBatch, 1, 0, "batch", LossTruncated, 10)
	b.Loss(GroupTrack(2), PhaseBatch, 3, 0, "batch", LossDropped, 25)
	b.Loss("gru/10.0.0.0/8/br", PhaseIngest, -1, 7, "sink", LossQuarantined, 6)
	b.Emit(Event{Track: GroupTrack(2), Phase: PhaseBatch, Win: 3, Kind: KFault, Stage: "batch", Detail: "corrupt-batch"})
	b.Emit(Event{Track: "gru/10.0.0.0/8/br", Phase: PhaseIngest, Seq: 7, Kind: KQuarantine, Stage: "sink", Value: 6, Detail: "sink retry budget exhausted"})
	for _, m := range []struct {
		d string
		v int64
	}{
		{MarkLostPrefix + LossOutage, 40},
		{MarkLostPrefix + LossTruncated, 10},
		{MarkLostPrefix + LossDropped, 25},
		{MarkLostPrefix + LossQuarantined, 6},
		{MarkRetries, 9},
		{MarkRecovered, 4},
	} {
		b.Emit(Event{Track: TrackRun, Phase: PhaseRun, Win: -1, Kind: KMark, Stage: CoverageStage, Value: m.v, Detail: m.d})
	}
	var out bytes.Buffer
	if err := r.Flush(&out); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(&out)
	if err != nil {
		t.Fatal(err)
	}
	rep := Causes(f)
	if !rep.Reconciled() {
		t.Fatalf("should reconcile: %+v", rep.Checks)
	}
	if rep.Sender != 40 || rep.Network != 35 || rep.Receiver != 6 {
		t.Fatalf("buckets: sender=%d network=%d receiver=%d", rep.Sender, rep.Network, rep.Receiver)
	}
	if rep.Retries != 9 || rep.Recovered != 4 {
		t.Fatalf("retry economy: %d/%d", rep.Retries, rep.Recovered)
	}
	if len(rep.Groups) != 3 || rep.Groups[0].Track != GroupTrack(1) {
		t.Fatalf("groups: %+v", rep.Groups)
	}
	if got := rep.Groups[1].Faults; len(got) != 1 || got[0] != "corrupt-batch" {
		t.Fatalf("fault classes: %+v", got)
	}

	// Break the ledger: reconciliation must fail loudly.
	b.Emit(Event{Track: GroupTrack(9), Phase: PhaseGen, Kind: KLoss, Stage: "generate", Value: 1, Detail: LossOutage})
	out.Reset()
	if err := r.Flush(&out); err != nil {
		t.Fatal(err)
	}
	f2, err := Parse(&out)
	if err != nil {
		t.Fatal(err)
	}
	if Causes(f2).Reconciled() {
		t.Fatal("broken ledger reconciled")
	}
}

func TestDiff(t *testing.T) {
	mk := func(samples int64) *File {
		r := New(1)
		b := r.Buf()
		sp := b.Begin(GroupTrack(0), PhaseGen, -1, 0, "generate")
		sp.End(samples)
		b.Emit(Event{Track: TrackRun, Phase: PhaseRun, Kind: KMark, Stage: "run"})
		var out bytes.Buffer
		if err := r.Flush(&out); err != nil {
			t.Fatal(err)
		}
		f, err := Parse(&out)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	rows := Diff(mk(10), mk(12))
	var gen DiffRow
	for _, row := range rows {
		if row.Stage == "generate" {
			gen = row
		}
	}
	if gen.Same() {
		t.Fatalf("generate should differ: %+v", gen)
	}
	if gen.ASamples != 10 || gen.BSamples != 12 {
		t.Fatalf("diff values: %+v", gen)
	}
	for _, row := range Diff(mk(10), mk(10)) {
		if !row.Same() {
			t.Fatalf("identical runs diff: %+v", row)
		}
	}
}

// BenchmarkTraceOverhead measures the cost of one enabled emission on
// the ingest hot path — the number BENCH_trace.json records (target:
// ~0 allocs/event, nanoseconds per event).
func BenchmarkTraceOverhead(b *testing.B) {
	r := New(1)
	buf := r.Buf()
	tracks := make([]string, 64)
	for i := range tracks {
		tracks[i] = GroupTrack(i)
	}
	b.Run("enabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Emit(Event{Track: tracks[i&63], Phase: PhaseIngest, Win: int32(i & 7), Seq: uint64(i), Kind: KMark, Stage: "sink", Value: 1})
		}
	})
	b.Run("disabled", func(b *testing.B) {
		var nb *Buf
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nb.Emit(Event{Track: tracks[i&63], Phase: PhaseIngest, Win: int32(i & 7), Seq: uint64(i), Kind: KMark, Stage: "sink", Value: 1})
		}
	})
}
