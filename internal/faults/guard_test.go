package faults

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// The fixtures every Guard table row shares: world group 3, a batch of
// 10 windows of one sample each, a 7-sample write, and one sample of
// user group userKey, which already holds 2 samples, so a quarantine
// loses 3.
const (
	tGroup   = 3
	tBatchN  = 10
	tWriteN  = 7
	tSession = 42
	tHeld    = 2
	tQLost   = tHeld + 1
	gTrack   = "g/0003"
	gKey     = "world-group-0003"
	userKey  = "lhr/10.0.0.0/24/GB"
	sinkKey  = "sample 42 group " + userKey
)

// Plans that force each fate: probabilities of 1 make the draw
// independent of any seed, sink-streak=1 pins a transient streak to one
// failure, and retries=1 leaves no budget to absorb it.
const (
	planQuiet     = "retries=4"
	planRecover   = "sink-transient=1;sink-streak=1;retries=4"
	planExhaust   = "sink-transient=1;sink-streak=1;retries=1"
	planPermanent = "sink-permanent=1"
)

func ev(track string, phase uint8, seq uint64, kind trace.Kind, stage string, value int64, detail string) trace.Event {
	return trace.Event{Track: track, Phase: phase, Win: -1, Seq: seq, Kind: kind, Stage: stage, Value: value, Detail: detail}
}

// batchEv, writeEv and sinkEv place an event where each surface files it.
func batchEv(seq uint64, kind trace.Kind, value int64, detail string) trace.Event {
	return ev(gTrack, trace.PhaseBatch, seq, kind, "batch", value, detail)
}
func writeEv(seq uint64, kind trace.Kind, value int64, detail string) trace.Event {
	return ev(gTrack, trace.PhaseCommit, seq, kind, "write", value, detail)
}
func sinkEv(track string, seq uint64, kind trace.Kind, value int64, detail string) trace.Event {
	return ev(track, trace.PhaseIngest, seq, kind, "sink", value, detail)
}

// outcome is what one guarded operation must leave behind.
type outcome struct {
	cov    Coverage      // ledger delta (Spec and FailFast are filled in by the harness)
	events []trace.Event // in canonical trace order
	calls  []string      // callbacks fired and verdicts returned, in order
	sleeps int           // virtual backoffs taken
	// err, when non-nil, is the FaultError the operation must return
	// (matched on Surface, Key and Transient, and against IsTransient).
	err *FaultError
}

// harness drives one Guard with recording fakes.
type harness struct {
	g      *Guard
	tb     *trace.Buf
	calls  []string
	sleeps int
}

func (h *harness) commit() error { h.calls = append(h.calls, "commit"); return nil }
func (h *harness) tombstone(reason string) error {
	h.calls = append(h.calls, "tombstone("+reason+")")
	return nil
}

// batch runs a batch of tBatchN windows, one sample each, through its
// fate: the samples of the windows from the cut on are lost.
func (h *harness) batch() error {
	f, err := h.g.Batch(tGroup, tBatchN)
	if err != nil {
		return err
	}
	f.Lost = tBatchN - f.Cut
	h.g.BookBatch(h.tb, f)
	h.calls = append(h.calls, fmt.Sprintf("keep %d", f.Cut))
	return nil
}

func (h *harness) write(n int) error {
	ok, err := h.g.Write(context.Background(), h.tb, tGroup, n, h.commit, h.tombstone)
	if ok {
		h.calls = append(h.calls, "committed")
	}
	return err
}

// sink decides the fixture sample's fate and records the verdict: the
// ledger entry of its group's quarantine, or -1 to keep it.
func (h *harness) sink() error {
	entry, err := h.g.Sink(context.Background(), h.tb, tSession, userKey, tHeld)
	h.calls = append(h.calls, fmt.Sprintf("entry %d", entry))
	return err
}

func quarantined(key, reason string, lost int) []QuarantinedGroup {
	return []QuarantinedGroup{{Key: key, Reason: reason, SamplesLost: lost}}
}

// TestGuardLadder pins the recovery ladder rung by rung: for every fate
// of every surface, with fail-fast off and on, the exact ledger delta,
// the exact trace events, the callbacks that fired or the verdict
// returned, and the class of the returned error.
func TestGuardLadder(t *testing.T) {
	const (
		exhausted  = "write retry budget exhausted"
		sinkExh    = "sink retry budget exhausted"
		permWrite  = "permanent write failure"
		permSink   = "permanent sink failure"
		lossDrop   = trace.LossDropped
		lossQuar   = trace.LossQuarantined
		corrupt    = "corrupt-batch"
		failed     = "permanent-failure"
		truncated  = "truncated-batch"
		streamingN = 4 // a second, smaller Write of the same group
	)
	batch := func(h *harness) error { return h.batch() }
	write := func(h *harness) error { return h.write(tWriteN) }
	writeTwice := func(h *harness) error {
		if err := h.write(tWriteN); err != nil {
			return err
		}
		return h.write(streamingN)
	}
	// A batch producer draws the write fate up front; its event stays
	// with the first Write, which knows the samples it books.
	drawThenWrite := func(h *harness) error {
		if err := h.g.DrawWrite(tGroup); err != nil {
			return err
		}
		return h.write(tWriteN)
	}
	sink := func(h *harness) error { return h.sink() }
	sinkThenRefuse := func(h *harness) error {
		if err := h.sink(); err != nil {
			return err
		}
		h.g.Refuse(h.tb, 0, tSession+1, 1)
		return nil
	}

	rows := []struct {
		name string
		plan string
		op   func(*harness) error
		want outcome
		// ff is the outcome under fail-fast; nil means fail-fast changes
		// nothing (the fate never reaches a rung fail-fast removes).
		ff *outcome
	}{
		{name: "outage", plan: planQuiet,
			op:   func(h *harness) error { h.g.Outage(4); h.g.Outage(0); return nil },
			want: outcome{cov: Coverage{SamplesLostOutage: 4}}},

		{name: "batch/ok", plan: planQuiet, op: batch,
			want: outcome{calls: []string{"keep 10"}}},
		// The cut is in windows: 10 − round(0.25 × 10), rounding half away
		// from zero, keeps windows 0–6 and loses the last three.
		{name: "batch/truncate", plan: "truncate=1;truncate-frac=0.25", op: batch,
			want: outcome{
				cov:   Coverage{BatchesTruncated: 1, SamplesLostTruncated: 3},
				calls: []string{"keep 7"},
				events: []trace.Event{
					batchEv(0, trace.KFault, 3, truncated),
					batchEv(0, trace.KLoss, 3, trace.LossTruncated),
				}}},
		{name: "batch/corrupt", plan: "corrupt=1", op: batch,
			want: outcome{
				cov:   Coverage{GroupsDropped: 1, SamplesLostDropped: tBatchN, Quarantined: quarantined(gKey, corrupt, tBatchN)},
				calls: []string{"keep 0"},
				events: []trace.Event{
					batchEv(0, trace.KFault, tBatchN, corrupt),
					batchEv(0, trace.KLoss, tBatchN, lossDrop),
					batchEv(1, trace.KQuarantine, tBatchN, corrupt),
				}},
			ff: &outcome{err: &FaultError{Surface: SurfaceBatch, Key: gKey}}},
		{name: "batch/fail-group", plan: "fail-group=3", op: batch,
			want: outcome{
				cov:   Coverage{GroupsDropped: 1, SamplesLostDropped: tBatchN, Quarantined: quarantined(gKey, failed, tBatchN)},
				calls: []string{"keep 0"},
				events: []trace.Event{
					batchEv(0, trace.KFault, tBatchN, failed),
					batchEv(0, trace.KLoss, tBatchN, lossDrop),
					batchEv(1, trace.KQuarantine, tBatchN, failed),
				}},
			ff: &outcome{err: &FaultError{Surface: SurfaceBatch, Key: gKey}}},

		{name: "write/none", plan: planQuiet, op: write,
			want: outcome{
				calls:  []string{"commit", "committed"},
				events: []trace.Event{writeEv(2, trace.KCommit, tWriteN, "")},
			}},
		{name: "write/transient-recovered", plan: planRecover, op: write,
			want: outcome{
				cov:    Coverage{RetriesSpent: 1, TransientRecovered: 1},
				calls:  []string{"commit", "committed"},
				sleeps: 1,
				events: []trace.Event{
					writeEv(0, trace.KFault, 1, "write-transient"),
					writeEv(0, trace.KRetry, 1, ""),
					writeEv(2, trace.KCommit, tWriteN, ""),
				}}},
		{name: "write/transient-exhausted", plan: planExhaust, op: write,
			want: outcome{
				cov:   Coverage{GroupsDropped: 1, SamplesLostDropped: tWriteN, Quarantined: quarantined(gKey, exhausted, tWriteN)},
				calls: []string{"tombstone(" + exhausted + ")"},
				events: []trace.Event{
					writeEv(0, trace.KFault, 1, "write-transient"),
					writeEv(0, trace.KLoss, tWriteN, lossDrop),
					writeEv(1, trace.KQuarantine, tWriteN, exhausted),
				}},
			ff: &outcome{
				err:    &FaultError{Surface: SurfaceWrite, Key: gKey, Transient: true},
				events: []trace.Event{writeEv(0, trace.KFault, 1, "write-transient")},
			}},
		{name: "write/permanent", plan: planPermanent, op: write,
			want: outcome{
				cov:   Coverage{GroupsDropped: 1, SamplesLostDropped: tWriteN, Quarantined: quarantined(gKey, permWrite, tWriteN)},
				calls: []string{"tombstone(" + permWrite + ")"},
				events: []trace.Event{
					writeEv(0, trace.KFault, tWriteN, "write-permanent"),
					writeEv(0, trace.KLoss, tWriteN, lossDrop),
					writeEv(1, trace.KQuarantine, tWriteN, permWrite),
				}},
			ff: &outcome{err: &FaultError{Surface: SurfaceWrite, Key: gKey}}},
		{name: "write/transient-recovered, drawn up front", plan: planRecover, op: drawThenWrite,
			want: outcome{
				cov:    Coverage{RetriesSpent: 1, TransientRecovered: 1},
				calls:  []string{"commit", "committed"},
				sleeps: 1,
				events: []trace.Event{
					writeEv(0, trace.KFault, 1, "write-transient"),
					writeEv(0, trace.KRetry, 1, ""),
					writeEv(2, trace.KCommit, tWriteN, ""),
				}}},
		{name: "write/permanent, drawn up front", plan: planPermanent, op: drawThenWrite,
			want: outcome{
				cov:   Coverage{GroupsDropped: 1, SamplesLostDropped: tWriteN, Quarantined: quarantined(gKey, permWrite, tWriteN)},
				calls: []string{"tombstone(" + permWrite + ")"},
				events: []trace.Event{
					writeEv(0, trace.KFault, tWriteN, "write-permanent"),
					writeEv(0, trace.KLoss, tWriteN, lossDrop),
					writeEv(1, trace.KQuarantine, tWriteN, permWrite),
				}},
			ff: &outcome{err: &FaultError{Surface: SurfaceWrite, Key: gKey}}},
		// The streaming producer's shape: one Write per chunk. The fate is
		// the group's — drawn once, a burned streak stays burned, a fatal
		// fate tombstones every later chunk into the same ledger entry.
		{name: "write/transient-recovered, then a second chunk", plan: planRecover, op: writeTwice,
			want: outcome{
				cov:    Coverage{RetriesSpent: 1, TransientRecovered: 1},
				calls:  []string{"commit", "committed", "commit", "committed"},
				sleeps: 1,
				events: []trace.Event{
					writeEv(0, trace.KFault, 1, "write-transient"),
					writeEv(0, trace.KRetry, 1, ""),
					writeEv(2, trace.KCommit, streamingN, ""),
					writeEv(2, trace.KCommit, tWriteN, ""),
				}}},
		{name: "write/permanent, then a second chunk", plan: planPermanent, op: writeTwice,
			want: outcome{
				cov:   Coverage{GroupsDropped: 1, SamplesLostDropped: tWriteN + streamingN, Quarantined: quarantined(gKey, permWrite, tWriteN+streamingN)},
				calls: []string{"tombstone(" + permWrite + ")", "tombstone(" + permWrite + ")"},
				events: []trace.Event{
					writeEv(0, trace.KFault, tWriteN, "write-permanent"),
					writeEv(0, trace.KLoss, streamingN, lossDrop),
					writeEv(0, trace.KLoss, tWriteN, lossDrop),
					writeEv(1, trace.KQuarantine, streamingN, permWrite),
					writeEv(1, trace.KQuarantine, tWriteN, permWrite),
				}},
			ff: &outcome{err: &FaultError{Surface: SurfaceWrite, Key: gKey}}},

		{name: "sink/none", plan: planQuiet, op: sink,
			want: outcome{calls: []string{"entry -1"}}},
		{name: "sink/transient-recovered", plan: planRecover, op: sink,
			want: outcome{
				cov:    Coverage{RetriesSpent: 1, TransientRecovered: 1},
				calls:  []string{"entry -1"},
				sleeps: 1,
				events: []trace.Event{
					sinkEv(userKey, tSession, trace.KFault, 1, "sink-transient"),
					sinkEv(userKey, tSession, trace.KRetry, 1, ""),
				}}},
		{name: "sink/transient-exhausted", plan: planExhaust, op: sink,
			want: outcome{
				cov:   Coverage{SamplesLostQuarantined: tQLost, Quarantined: quarantined(userKey, sinkExh, tQLost)},
				calls: []string{"entry 0"},
				events: []trace.Event{
					sinkEv(userKey, tSession, trace.KFault, 1, "sink-transient"),
					sinkEv(userKey, tSession, trace.KQuarantine, tQLost, sinkExh),
					sinkEv(userKey, tSession, trace.KLoss, tQLost, lossQuar),
				}},
			ff: &outcome{
				err:    &FaultError{Surface: SurfaceSink, Key: sinkKey, Transient: true},
				calls:  []string{"entry -1"},
				events: []trace.Event{sinkEv(userKey, tSession, trace.KFault, 1, "sink-transient")},
			}},
		{name: "sink/permanent", plan: planPermanent, op: sink,
			want: outcome{
				cov:   Coverage{SamplesLostQuarantined: tQLost, Quarantined: quarantined(userKey, permSink, tQLost)},
				calls: []string{"entry 0"},
				events: []trace.Event{
					sinkEv(userKey, tSession, trace.KFault, 1, "sink-permanent"),
					sinkEv(userKey, tSession, trace.KQuarantine, tQLost, permSink),
					sinkEv(userKey, tSession, trace.KLoss, tQLost, lossQuar),
				}},
			ff: &outcome{err: &FaultError{Surface: SurfaceSink, Key: sinkKey}, calls: []string{"entry -1"}}},
		// The producer refuses a quarantined group's later samples into the
		// entry the quarantine returned, each filed at its own SessionID.
		{name: "sink/permanent, then a refused sample", plan: planPermanent, op: sinkThenRefuse,
			want: outcome{
				cov:   Coverage{SamplesLostQuarantined: tQLost + 1, Quarantined: quarantined(userKey, permSink, tQLost+1)},
				calls: []string{"entry 0"},
				events: []trace.Event{
					sinkEv(userKey, tSession, trace.KFault, 1, "sink-permanent"),
					sinkEv(userKey, tSession, trace.KQuarantine, tQLost, permSink),
					sinkEv(userKey, tSession, trace.KLoss, tQLost, lossQuar),
					sinkEv(userKey, tSession+1, trace.KLoss, 1, lossQuar),
				}},
			ff: &outcome{err: &FaultError{Surface: SurfaceSink, Key: sinkKey}, calls: []string{"entry -1"}}},
	}

	for _, row := range rows {
		for _, failFast := range []bool{false, true} {
			want := row.want
			if failFast && row.ff != nil {
				want = *row.ff
			}
			t.Run(fmt.Sprintf("%s/failfast=%t", row.name, failFast), func(t *testing.T) {
				plan, err := ParsePlan(row.plan)
				if err != nil {
					t.Fatal(err)
				}
				inj := NewInjector(plan, 1)
				rec := trace.New(1)
				h := &harness{g: NewGuard(inj, failFast), tb: rec.Buf()}
				h.g.sleep = func(time.Duration) { h.sleeps++ }

				err = row.op(h)

				var fe *FaultError
				switch {
				case want.err == nil && err != nil:
					t.Fatalf("unexpected error: %v", err)
				case want.err != nil && !errors.As(err, &fe):
					t.Fatalf("err = %v, want a wrapped FaultError %+v", err, *want.err)
				case want.err != nil && (*fe != *want.err || IsTransient(err) != want.err.Transient):
					t.Fatalf("err = %v (FaultError %+v, IsTransient %t), want %+v", err, *fe, IsTransient(err), *want.err)
				}
				want.cov.Spec, want.cov.FailFast = inj.Plan().Spec(), failFast
				if got := h.g.Coverage(); !reflect.DeepEqual(*got, want.cov) {
					t.Errorf("coverage:\n got %+v\nwant %+v", *got, want.cov)
				}
				if got := rec.Events(); !reflect.DeepEqual(got, want.events) {
					t.Errorf("trace events:\n got %+v\nwant %+v", got, want.events)
				}
				if !reflect.DeepEqual(h.calls, want.calls) {
					t.Errorf("callbacks: got %q, want %q", h.calls, want.calls)
				}
				if h.sleeps != want.sleeps {
					t.Errorf("virtual backoffs: got %d, want %d", h.sleeps, want.sleeps)
				}
			})
		}
	}
}

// TestDrawWriteCountsOneInjection: a write fate drawn up front is drawn
// once, however often it is asked for and whichever call asks first, so
// the injection counter counts one fault for the group.
func TestDrawWriteCountsOneInjection(t *testing.T) {
	plan, err := ParsePlan(planPermanent)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(plan, 1)
	reg := obs.NewRegistry()
	inj.Instrument(reg)
	g := NewGuard(inj, false)
	for range 2 {
		if err := g.DrawWrite(tGroup); err != nil {
			t.Fatal(err)
		}
		if ok, err := g.Write(context.Background(), nil, tGroup, tWriteN, func() error { return nil }, nil); ok || err != nil {
			t.Fatalf("Write = (%t, %v), want a tombstoned group", ok, err)
		}
	}
	if n := reg.Counter(obs.L("faults_injected_total", "surface", SurfaceWrite)).Value(); n != 1 {
		t.Errorf("faults_injected_total{surface=write} = %d, want 1", n)
	}
}

// A nil Guard is the no-plan fast path: everything passes through, the
// commit is still traced, and there is no ledger.
func TestNilGuardPassesThrough(t *testing.T) {
	rec := trace.New(1)
	h := &harness{tb: rec.Buf()}
	h.g.Outage(5)
	if err := h.batch(); err != nil {
		t.Fatal(err)
	}
	h.g.BookBatch(h.tb, BatchFate{Group: tGroup, Kind: BatchFail, Lost: 1})
	if err := h.write(tWriteN); err != nil {
		t.Fatal(err)
	}
	if err := h.sink(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"keep 10", "commit", "committed", "entry -1"}; !reflect.DeepEqual(h.calls, want) {
		t.Errorf("callbacks: got %q, want %q", h.calls, want)
	}
	if want := []trace.Event{writeEv(2, trace.KCommit, tWriteN, "")}; !reflect.DeepEqual(rec.Events(), want) {
		t.Errorf("trace events: got %+v, want %+v", rec.Events(), want)
	}
	if cov := h.g.Coverage(); cov != nil {
		t.Errorf("nil guard has a ledger: %+v", cov)
	}
	boom := errors.New("disk full")
	if ok, err := h.g.Write(context.Background(), nil, tGroup, 1, func() error { return boom }, nil); ok || !errors.Is(err, boom) {
		t.Errorf("failed commit: Write = (%t, %v), want (false, %v)", ok, err, boom)
	}
}

// A commit's own error is permanent whatever the injected fate: it
// surfaces as it is, is never retried into a tombstone, and books
// nothing.
func TestGuardWriteSurfacesCommitErrors(t *testing.T) {
	boom := errors.New("disk full")
	for _, spec := range []string{planQuiet, planRecover} {
		plan, err := ParsePlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGuard(NewInjector(plan, 1), false)
		g.sleep = func(time.Duration) {}
		ok, err := g.Write(context.Background(), nil, tGroup, tWriteN,
			func() error { return boom },
			func(string) error { t.Error("tombstoned a commit error"); return nil })
		if ok || !errors.Is(err, boom) {
			t.Errorf("plan %q: Write = (%t, %v), want (false, %v)", spec, ok, err, boom)
		}
		if cov := g.Coverage(); cov.Degraded() {
			t.Errorf("plan %q: a commit error was booked as degradation: %+v", spec, cov)
		}
	}
}

// TestBatchTruncateCut pins the cut a batch fate draws: in windows, from
// Windows − round(TruncateFrac × Windows) on, rounding half away from
// zero; every window for a dropped batch and none without a plan.
func TestBatchTruncateCut(t *testing.T) {
	for _, c := range []struct {
		plan         string
		windows, cut int
	}{
		{"truncate=1", 192, 96},
		{"truncate=1;truncate-frac=0.3", 192, 134},
		{"truncate=1;truncate-frac=0.25", 10, 7},
		{"truncate=1;truncate-frac=1", 96, 0},
		{"truncate=1;truncate-frac=0.001", 96, 96},
		{"corrupt=1", 192, 0},
		{"fail-group=3", 192, 0},
		{"retries=4", 192, 192},
	} {
		plan, err := ParsePlan(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewGuard(NewInjector(plan, 1), false).Batch(tGroup, c.windows)
		if err != nil || f.Cut != c.cut || f.Lost != 0 {
			t.Errorf("plan %q over %d windows: fate %+v, %v; want cut %d, nothing counted yet", c.plan, c.windows, f, err, c.cut)
		}
	}
	if f, _ := (*Guard)(nil).Batch(tGroup, 192); f.Cut != 192 {
		t.Errorf("nil guard: cut %d, want 192", f.Cut)
	}
}
