package study

import (
	"context"

	"repro/internal/sample"
)

// guarded runs one sample through the sink fault surface on its shard
// (faults.Guard.Sink owns the ladder and the ledger). What the study
// adds is the meaning of "quarantine" here: the sample's user group is
// withdrawn from the shard store and its later samples are refused.
// Fault decisions key on SessionID and group key, so the merged outcome
// is identical at any worker count even though shard membership is not.
func (sh *ingestShard) guarded(ctx context.Context, s sample.Sample) error {
	offer := func() error {
		sh.col.Offer(s)
		return sh.col.Err()
	}
	if s.HostingProvider {
		// The filter will reject it before any sink runs; no fault
		// surface applies, and the collector keeps its count exact.
		return offer()
	}
	key := s.Key()
	if entry, ok := sh.qidx[key]; ok {
		sh.guard.Refuse(sh.buf, entry, s.SessionID, 1)
		return nil
	}
	entry, err := sh.guard.Sink(ctx, sh.buf, s, offer,
		func(string) int {
			lost := 1 // the triggering sample never reached the store
			if removed := sh.store.Remove(key); removed != nil {
				lost += removed.TotalSessions()
			}
			return lost
		})
	if entry >= 0 {
		sh.qidx[key] = entry
	}
	return err
}
