package study

import (
	"context"

	"repro/internal/agg"
	"repro/internal/collector"
	"repro/internal/faults"
	"repro/internal/sample"
	"repro/internal/trace"
)

// shardGuard is one ingestion shard's caller of the sink fault surface
// (faults.Guard.Sink owns the ladder and the ledger). What the study
// adds is the meaning of "quarantine" here: the sample's user group is
// withdrawn from the shard store and its later samples are refused.
// Fault decisions key on SessionID and group key, so the merged outcome
// is identical at any worker count even though shard membership is not.
// Single-goroutine: the shard's worker owns it, qidx and buf included.
type shardGuard struct {
	guard *faults.Guard
	col   *collector.Collector
	store *agg.Store
	qidx  map[sample.GroupKey]int // quarantined user group → its ledger entry
	buf   *trace.Buf
}

// offer runs one sample through the guarded sink path.
func (sg *shardGuard) offer(ctx context.Context, s sample.Sample) error {
	if s.HostingProvider {
		// The filter would reject it before any sink ran; no fault
		// surface applies, and the collector keeps its count exact.
		sg.col.Offer(s)
		return sg.col.Err()
	}
	key := s.Key()
	if entry, ok := sg.qidx[key]; ok {
		sg.guard.Refuse(sg.buf, entry, s.SessionID, 1)
		return nil
	}
	entry, err := sg.guard.Sink(ctx, sg.buf, faults.UserGroup, s,
		func() error {
			sg.col.Offer(s)
			return sg.col.Err()
		},
		func(string) int {
			lost := 1 // the triggering sample never reached the store
			if removed := sg.store.Remove(key); removed != nil {
				lost += removed.TotalSessions()
			}
			return lost
		})
	if entry >= 0 {
		sg.qidx[key] = entry
	}
	return err
}
