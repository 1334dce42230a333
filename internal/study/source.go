package study

import (
	"cmp"
	"context"

	"repro/internal/agg"
	"repro/internal/faults"
	"repro/internal/sample"
	"repro/internal/segstore"
	"repro/internal/trace"
	"repro/internal/world"
)

// env is what run resolves once and hands every source: the options
// (Workers already a count ≥ 1), the fault machinery (nil without a
// plan), and the trace ring of the goroutine deliver runs on (nil when
// untraced).
type env struct {
	Options
	inj   *faults.Injector
	guard *faults.Guard
	buf   *trace.Buf
}

// source is one origin of the study's sample stream.
type source interface {
	// seed keys the run's fault decisions.
	seed() uint64
	// deliver hands sk every sample, each user group's in the source's
	// canonical order, as rows or as column batches, from a single
	// goroutine, producing them on up to e.Workers goroutines of its own.
	deliver(ctx context.Context, e *env, sk sink) error
	// config is the world.Config the report states, given the store the
	// delivered samples aggregated into.
	config(store *agg.Store) world.Config
}

// worldSource generates the dataset. It is the only source with a
// generator, so the only one the outage and batch fault surfaces apply
// to. tap, when set, also sees every sample that survives those
// surfaces and the hosting filter, in delivery order. reorder, when
// set, permutes the work list the generator claims groups from: nothing
// the study holds may depend on the order groups arrive in.
type worldSource struct {
	w       *world.World
	tap     func(sample.Sample)
	reorder func([]int)
}

func (s *worldSource) seed() uint64                   { return s.w.Cfg.Seed }
func (s *worldSource) config(*agg.Store) world.Config { return s.w.Cfg }

func (s *worldSource) deliver(ctx context.Context, e *env, sk sink) error {
	s.w.Instrument(e.Reg)
	s.w.Rec = e.Trace
	if e.inj != nil {
		s.w.PoPDown = e.inj.Outage
	}
	// Every group's batch fate is drawn up front, in group order: under
	// fail-fast the work list stops at the first dropped group. Days
	// arrive on one goroutine (the one that owns e.buf), each group's in
	// day order: outage losses are booked, a day delivers its windows
	// below its fate's cut — none of a dropped group's — and the fate is
	// booked with the group's last day, once what it cut is known.
	fates := make([]faults.BatchFate, len(s.w.Groups))
	var todo []int
	var unrecoverable error
	for gi := range fates {
		if fates[gi], unrecoverable = e.guard.Batch(gi, s.w.Cfg.Windows()); unrecoverable != nil {
			break
		}
		todo = append(todo, gi)
	}
	if s.reorder != nil {
		s.reorder(todo)
	}
	return cmp.Or(s.w.GenerateBatchesOf(ctx, todo, e.Workers, func(b world.Batch) error {
		e.guard.Outage(b.Lost)
		fate := &fates[b.Group]
		kept := b.Samples
		for i := range kept {
			if int(kept[i].Start/world.WindowDuration) >= fate.Cut {
				kept, fate.Lost = kept[:i], fate.Lost+len(kept)-i
				break
			}
		}
		if b.Day == s.w.Cfg.Days-1 {
			e.guard.BookBatch(e.buf, *fate)
		}
		if s.tap != nil {
			foldRows(s.tap, kept)
		}
		return sk.rows(ctx, b.Group*s.w.Cfg.Days+b.Day, kept)
	}), unrecoverable)
}

// segmentSource replays segments of an open dataset: segs is pruned
// against e.Filter, the survivors decode on e.Workers goroutines and
// arrive in segs order as column batches. A replay has no generator, so
// fault decisions key on seed 0 and only the sink surface (and shard
// timing chaos) applies — segments are not group batches, and
// batch-level fates would not be comparable across worker counts — and
// the dataset's shape is inferred from what the sink's store holds.
type segmentSource struct {
	r    *segstore.Reader
	segs []segstore.SegmentMeta
}

func (*segmentSource) seed() uint64                         { return 0 }
func (*segmentSource) config(store *agg.Store) world.Config { return inferredCfg(store) }

func (s *segmentSource) deliver(ctx context.Context, e *env, sk sink) error {
	s.r.Instrument(e.Reg)
	return s.r.ScanSegments(ctx, e.Workers, s.segs, e.Filter, func(b *segstore.ColumnBatch) error {
		defer b.Release()
		if e.RowOracle {
			//edgelint:allow rowfree: opt.RowOracle explicitly requests the row currency for verification
			return sk.rows(ctx, -1, b.AppendRows(make([]sample.Sample, 0, b.Len())))
		}
		return sk.columns(ctx, b)
	})
}
