package faults

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/trace"
)

// Guard is the pipeline's one recovery ladder. It owns the policy that
// follows every injected decision — what is lost, retried, quarantined
// or tombstoned — and the two records of it: the Coverage ledger and
// the trace events the ledger must reconcile against. Producers (the
// study's world source and routes lane, and seggen's chunk writer,
// which internal/studyd drives too) are thin callers: they ask for a
// verdict, apply it to their own data, and never touch an Injector
// decision or a Coverage counter.
//
// Three surfaces: Batch (a world group's generated windows: keep all,
// keep those below a cut, or drop) and Sink (one sample of a user
// group, in the study only: keep it or quarantine the group) are
// verdicts the producer applies; Write (one group's dataset commit)
// runs the producer's commit and tombstone callbacks. A nil *Guard (no
// fault plan) is valid everywhere: Batch keeps everything, Write
// commits, Sink keeps, Coverage is nil.
//
// Guard is safe for concurrent use; the ledger is locked. Trace buffers
// are single-owner, so every method that emits takes the calling
// goroutine's buffer: a batch fate is decided on any goroutine (Batch)
// and booked with its events on the one that owns the buffer
// (BookBatch).
type Guard struct {
	inj      *Injector
	failFast bool
	sleep    func(time.Duration) // replaces the retry backoff clock (tests); nil is the real one

	mu     sync.Mutex
	cov    Coverage
	tracks []string           // tracks[i] is the trace track of cov.Quarantined[i]
	writes map[int]*writeFate // per-group write fates, drawn once
}

// NewGuard binds the recovery ladder to an injector; failFast turns
// every rung after retry into an error. A nil injector yields a nil
// guard.
func NewGuard(inj *Injector, failFast bool) *Guard {
	if inj == nil {
		return nil
	}
	return &Guard{
		inj:      inj,
		failFast: failFast,
		cov:      Coverage{Spec: inj.Plan().Spec(), FailFast: failFast},
		writes:   make(map[int]*writeFate),
	}
}

// Coverage returns the finalized ledger as of now (nil on a nil
// guard): a copy, so a long-running producer can snapshot mid-run.
func (g *Guard) Coverage() *Coverage {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.cov
	c.Quarantined = append([]QuarantinedGroup(nil), g.cov.Quarantined...)
	c.Finalize()
	return &c
}

// Outage books sessions a PoP outage suppressed at the source.
func (g *Guard) Outage(lost int) {
	if g == nil || lost <= 0 {
		return
	}
	g.mu.Lock()
	g.cov.SamplesLostOutage += lost
	g.mu.Unlock()
	g.inj.MarkDegraded()
}

// worldGroupKey names a world group in the ledger and in FaultError
// keys; fixed-width so the sorted quarantine list is in group order.
func worldGroupKey(group int) string { return fmt.Sprintf("world-group-%04d", group) }

// quarantineLocked appends one ledger entry and returns its handle.
func (g *Guard) quarantineLocked(key, track, reason string, lost int) int {
	g.cov.Quarantined = append(g.cov.Quarantined, QuarantinedGroup{Key: key, Reason: reason, SamplesLost: lost})
	g.tracks = append(g.tracks, track)
	return len(g.cov.Quarantined) - 1
}

// site is the logical trace coordinate one surface's events share.
type site struct {
	tb    *trace.Buf
	track string
	phase uint8
	stage string
}

func (s site) emit(kind trace.Kind, seq uint64, value int, detail string) {
	s.tb.Emit(trace.Event{
		Track: s.track, Phase: s.phase, Win: -1, Seq: seq,
		Kind: kind, Stage: s.stage, Value: int64(value), Detail: detail,
	})
}

func (s site) loss(seq uint64, cause string, n int) {
	s.tb.Loss(s.track, s.phase, -1, seq, s.stage, cause, n)
}

// BatchFate is one world group's batch-surface verdict. It is a plain
// value so one goroutine can decide it and the goroutine that owns the
// trace buffer can book it.
type BatchFate struct {
	Group int
	Kind  BatchFaultKind
	// Cut is the first window the fate loses: 0 for a dropped batch
	// (BatchCorrupt, BatchFail), Windows − round(TruncateFrac × Windows)
	// for a truncated one, and Windows — none — otherwise. It is known
	// before the group's first window, so a stream applies it as a batch
	// does.
	Cut int
	// Lost counts the samples of the windows from Cut on. The producer
	// counts them as it applies the cut and books the fate with
	// BookBatch once the group is whole.
	Lost int
}

// Dropped reports whether the whole batch is unusable.
func (f BatchFate) Dropped() bool { return f.Kind == BatchCorrupt || f.Kind == BatchFail }

// Reason names the fate for ledger entries and tombstones.
func (f BatchFate) Reason() string { return f.Kind.String() }

// Batch decides the fate of group's batch of windows windows: what it
// keeps is every window below the fate's Cut. Under fail-fast a dropped
// batch is an error instead. Nothing is booked until BookBatch.
func (g *Guard) Batch(group, windows int) (BatchFate, error) {
	f := BatchFate{Group: group, Cut: windows}
	if g == nil {
		return f, nil
	}
	f.Kind = g.inj.batchFault(group)
	switch {
	case f.Dropped() && g.failFast:
		return f, fmt.Errorf("fail-fast: %s: %w", f.Kind, &FaultError{Surface: SurfaceBatch, Key: worldGroupKey(group)})
	case f.Dropped():
		f.Cut = 0
	case f.Kind == BatchTruncate:
		f.Cut = windows - int(math.Round(g.inj.plan.TruncateFrac*float64(windows)))
	}
	return f, nil
}

// BookBatch enters a counted fate in the ledger and its events in tb,
// the calling goroutine's buffer. A truncation that cut nothing (no
// sample in the windows from its cut on) is not a loss.
func (g *Guard) BookBatch(tb *trace.Buf, f BatchFate) {
	if g == nil || f.Kind == BatchOK || (f.Kind == BatchTruncate && f.Lost == 0) {
		return
	}
	cause := trace.LossTruncated
	g.mu.Lock()
	if f.Dropped() {
		cause = trace.LossDropped
		g.cov.GroupsDropped++
		g.cov.SamplesLostDropped += f.Lost
		g.quarantineLocked(worldGroupKey(f.Group), trace.GroupTrack(f.Group), f.Reason(), f.Lost)
	} else {
		g.cov.BatchesTruncated++
		g.cov.SamplesLostTruncated += f.Lost
	}
	g.mu.Unlock()
	g.inj.MarkDegraded()
	at := site{tb, trace.GroupTrack(f.Group), trace.PhaseBatch, "batch"}
	at.emit(trace.KFault, 0, f.Lost, f.Reason())
	if f.Dropped() {
		at.emit(trace.KQuarantine, 1, f.Lost, f.Reason())
	}
	at.loss(0, cause, f.Lost)
}

// writeFate is one group's write-surface state. A batch producer makes
// one Write per group; a streaming producer makes one per chunk, and
// the fate drawn for the first persists: a transient streak is burned by
// the first commit, a fatal fate tombstones every later one.
type writeFate struct {
	rem    int    // transient failures still to burn
	reason string // non-empty once fatal
	entry  int    // ledger entry of the tombstoned group (-1 before the first)
}

// DrawWrite draws group's write fate unless it is drawn already: under
// fail-fast a permanent fault is an error. The first Write draws it
// too; a producer that draws every group's fate up front, in group
// order, learns of such a fault before it simulates the group. The
// fault's event waits for the first Write, which knows the samples it
// books.
func (g *Guard) DrawWrite(group int) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.writes[group] != nil {
		return nil
	}
	wf := &writeFate{entry: -1}
	g.writes[group] = wf
	switch d := g.inj.writeFault(group); {
	case d.Permanent && g.failFast:
		return fmt.Errorf("fail-fast: write-permanent: %w", &FaultError{Surface: SurfaceWrite, Key: worldGroupKey(group)})
	case d.Permanent:
		wf.reason = "permanent write failure"
	default:
		wf.rem = d.Transient
	}
	return nil
}

// Write commits n samples of group under the write surface. The
// group's fate is drawn once (DrawWrite): clean runs commit; a transient
// streak runs commit under the plan's retry policy (commit's own errors
// are permanent and surface as they are); a permanent fault — or an
// exhausted retry budget — books the n samples as dropped and calls
// tombstone(reason) (nil: the producer has nothing to record) instead,
// as does every later Write of the group. It reports whether commit
// ran and succeeded. Writes of one group must not overlap; tb is the
// calling goroutine's buffer.
func (g *Guard) Write(ctx context.Context, tb *trace.Buf, group, n int, commit func() error, tombstone func(reason string) error) (bool, error) {
	at := site{tb, trace.GroupTrack(group), trace.PhaseCommit, "write"}
	if g == nil {
		if err := commit(); err != nil {
			return false, err
		}
		at.emit(trace.KCommit, 2, n, "")
		return true, nil
	}

	if err := g.DrawWrite(group); err != nil {
		return false, err
	}
	g.mu.Lock()
	wf := g.writes[group]
	g.mu.Unlock()
	// The drawn fault's event is the first Write's: a later one finds
	// the group tombstoned or its streak burned.
	switch {
	case wf.entry >= 0:
	case wf.reason != "":
		at.emit(trace.KFault, 0, n, "write-permanent")
	case wf.rem > 0:
		at.emit(trace.KFault, 0, wf.rem, "write-transient")
	}

	switch {
	case wf.reason != "":
	case wf.rem > 0:
		ferr := &FaultError{Surface: SurfaceWrite, Key: worldGroupKey(group), Transient: true}
		exhausted, err := g.retry(ctx, at, 0, group, &wf.rem, ferr, commit)
		if err != nil {
			return false, err
		}
		if exhausted {
			wf.reason = "write retry budget exhausted"
		}
	default:
		if err := commit(); err != nil {
			return false, err
		}
	}
	if wf.reason == "" {
		at.emit(trace.KCommit, 2, n, "")
		return true, nil
	}

	g.mu.Lock()
	g.cov.SamplesLostDropped += n
	if wf.entry < 0 {
		g.cov.GroupsDropped++
		wf.entry = g.quarantineLocked(worldGroupKey(group), at.track, wf.reason, n)
	} else {
		g.cov.Quarantined[wf.entry].SamplesLost += n
	}
	g.mu.Unlock()
	g.inj.MarkDegraded()
	at.emit(trace.KQuarantine, 1, n, wf.reason)
	at.loss(0, trace.LossDropped, n)
	if tombstone == nil {
		return false, nil
	}
	return false, tombstone(wf.reason)
}

// retry burns a transient streak (*rem injected failures of ferr) and
// then runs op, under the plan's backoff policy with the spend booked
// and traced at (at, seq). It reports a nil error when the fault was
// absorbed, exhausted when the budget ran out and the caller should
// degrade, and otherwise the error to propagate: fail-fast, op's own
// (permanent) failure, or a cancellation mid-backoff.
func (g *Guard) retry(ctx context.Context, at site, seq uint64, policyID int, rem *int, ferr *FaultError, op func() error) (exhausted bool, err error) {
	p := g.inj.Policy(policyID)
	p.Sleep = g.sleep
	p.OnRetry = func(int, error) {
		g.mu.Lock()
		g.cov.RetriesSpent++
		g.mu.Unlock()
	}
	p = p.Traced(at.tb, at.track, at.phase, -1, seq, at.stage)
	err = Retry(ctx, p, func() error {
		if *rem > 0 {
			*rem--
			return ferr
		}
		return op()
	})
	switch {
	case err == nil:
		g.mu.Lock()
		g.cov.TransientRecovered++
		g.mu.Unlock()
		g.inj.recovered()
		return false, nil
	case g.failFast || !IsTransient(err):
		return false, err
	}
	return true, nil
}

// Sink decides one sample's fate under the sink surface: keep it, or
// quarantine its user group. The sample is named by id (its SessionID,
// which keys the decision) and key (its group's sample.GroupKey string,
// the ledger key and trace track); held is how many of the group's
// samples the producer already holds. A clean sample is kept; a
// transient streak is retried under the plan's policy and kept once
// spent; a permanent fault — or an exhausted budget — quarantines the
// group instead: Sink books the triggering sample and the held ones as
// lost and returns the new ledger entry's handle (-1 when the sample is
// kept). The producer then withdraws what it holds of the group, drops
// the triggering sample, and refuses the group's later samples with
// Refuse. tb is the calling goroutine's buffer.
func (g *Guard) Sink(ctx context.Context, tb *trace.Buf, id uint64, key string, held int) (int, error) {
	if g == nil {
		return -1, nil
	}
	d := g.inj.sinkFault(id)
	if d.None() {
		return -1, nil
	}
	at := site{tb, key, trace.PhaseIngest, "sink"}
	ferr := &FaultError{Surface: SurfaceSink, Key: sinkFaultKey(id, key), Transient: !d.Permanent}
	reason := "permanent sink failure"
	if d.Permanent {
		if g.failFast {
			return -1, fmt.Errorf("fail-fast: %w", ferr)
		}
		at.emit(trace.KFault, id, 1, "sink-permanent")
	} else {
		at.emit(trace.KFault, id, d.Transient, "sink-transient")
		exhausted, err := g.retry(ctx, at, id, int(id), &d.Transient, ferr, func() error { return nil })
		if !exhausted {
			return -1, err
		}
		reason = "sink retry budget exhausted"
	}
	lost := held + 1
	g.mu.Lock()
	g.cov.SamplesLostQuarantined += lost
	entry := g.quarantineLocked(key, at.track, reason, lost)
	g.mu.Unlock()
	g.inj.MarkDegraded()
	at.emit(trace.KQuarantine, id, lost, reason)
	at.loss(id, trace.LossQuarantined, lost)
	return entry, nil
}

// Refuse books n more samples of an already-quarantined user group
// (entry is the handle Sink returned), filed under stream coordinate
// seq.
func (g *Guard) Refuse(tb *trace.Buf, entry int, seq uint64, n int) {
	g.mu.Lock()
	g.cov.Quarantined[entry].SamplesLost += n
	g.cov.SamplesLostQuarantined += n
	track := g.tracks[entry]
	g.mu.Unlock()
	tb.Loss(track, trace.PhaseIngest, -1, seq, "sink", trace.LossQuarantined, n)
}
