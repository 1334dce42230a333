package faults

import "repro/internal/trace"

// EmitTrace writes the finalized ledger onto the run track as one
// KMark per counter (stage trace.CoverageStage) — the summary the
// edgetrace cause attribution reconciles per-group KLoss events
// against. Call after Finalize, from a goroutine that owns b. Nil-safe
// on both receiver and buffer.
func (c *Coverage) EmitTrace(b *trace.Buf) {
	if c == nil || b == nil {
		return
	}
	marks := []struct {
		detail string
		value  int64
	}{
		{trace.MarkLostPrefix + trace.LossOutage, int64(c.SamplesLostOutage)},
		{trace.MarkLostPrefix + trace.LossTruncated, int64(c.SamplesLostTruncated)},
		{trace.MarkLostPrefix + trace.LossDropped, int64(c.SamplesLostDropped)},
		{trace.MarkLostPrefix + trace.LossQuarantined, int64(c.SamplesLostQuarantined)},
		{trace.MarkGroupsDropped, int64(c.GroupsDropped)},
		{trace.MarkBatchesTrunc, int64(c.BatchesTruncated)},
		{trace.MarkRetries, int64(c.RetriesSpent)},
		{trace.MarkRecovered, int64(c.TransientRecovered)},
	}
	for i, m := range marks {
		b.Emit(trace.Event{
			Track: trace.TrackRun, Phase: trace.PhaseRun, Win: -1, Seq: uint64(i),
			Kind: trace.KMark, Stage: trace.CoverageStage, Value: m.value, Detail: m.detail,
		})
	}
}

// Traced returns p with retry attempts recorded as KRetry events at
// the given logical coordinates, chained after any existing OnRetry
// hook. A nil buffer returns p unchanged.
func (p Policy) Traced(b *trace.Buf, track string, phase uint8, win int32, seq uint64, stage string) Policy {
	if b == nil {
		return p
	}
	prev := p.OnRetry
	p.OnRetry = func(attempt int, err error) {
		if prev != nil {
			prev(attempt, err)
		}
		b.Emit(trace.Event{
			Track: track, Phase: phase, Win: win, Seq: seq,
			Kind: trace.KRetry, Stage: stage, Value: int64(attempt),
		})
	}
	return p
}
