package seggen

import (
	"context"

	"repro/internal/collector"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/segstore"
	"repro/internal/trace"
	"repro/internal/world"
)

// GroupWriter is one world group's chunk writer: the one path from the
// group's generated samples to its segments and tombstones. Run hands
// it the group's days and lands every chunk in one Write; the
// live daemon (internal/studyd) hands it the group's windows as they
// generate and lands one chunk of every group at each commit. Either
// way the spool holds the same bytes and the ledger the same entries.
//
// A writer owns the group's batch fate, drawn when it is made; the
// hosting filter; the kept samples not yet encoded, in one buffer every
// chunk reuses; and the samples the fate cut, per chunk, which a
// dropped group's tombstones book. Its fault surfaces are the outage
// (the caller's, at the source), the batch and the write.
type GroupWriter struct {
	group, cpg int
	guard      *faults.Guard
	fate       faults.BatchFate
	col        *collector.Collector
	kept       []sample.Sample
	cut        []int
}

// NewGroupWriter draws the batch fate of cfg's world group under guard
// (nil: no plan) and returns the group's writer; reg (may be nil)
// counts what its filter accepts and rejects. Under fail-fast a dropped
// group is an error.
func NewGroupWriter(cfg world.Config, group int, guard *faults.Guard, reg *obs.Registry) (*GroupWriter, error) {
	fate, err := guard.Batch(group, cfg.Windows())
	if err != nil {
		return nil, err
	}
	cpg := ChunksPerGroup(cfg)
	w := &GroupWriter{group: group, cpg: cpg, guard: guard, fate: fate, cut: make([]int, cpg)}
	w.col = collector.New(collector.SliceSink(&w.kept))
	w.col.Instrument(reg)
	return w, nil
}

// Add runs samples, in window order, through the group's batch fate and
// hosting filter, and keeps what survives until Encode. The samples are
// copied into the writer's buffer: the slice is the caller's again when
// Add returns.
func (w *GroupWriter) Add(samples []sample.Sample) {
	for i := range samples {
		s := &samples[i]
		if int(s.Start/world.WindowDuration) >= w.fate.Cut {
			w.cut[ChunkOf(s.Start, w.cpg)]++
			w.fate.Lost++
			continue
		}
		w.col.Offer(*s)
	}
}

// Stats are the group's filter totals.
func (w *GroupWriter) Stats() collector.Stats { return w.col.Stats() }

// Buffer is the writer's sample buffer: the kept samples not yet
// encoded, and in its capacity the memory the writer holds for them.
func (w *GroupWriter) Buffer() []sample.Sample { return w.kept }

// Book enters the group's batch fate in the ledger and its events in
// tb, once the group is whole: only then is what the fate cut known.
func (w *GroupWriter) Book(tb *trace.Buf) { w.guard.BookBatch(tb, w.fate) }

// segment is one chunk, encoded.
type segment struct {
	id, samples int
	blob        []byte
	meta        segstore.SegmentMeta
}

// Unit is chunks [from, to) of one group, encoded: what one Write
// lands.
type Unit struct {
	w        *GroupWriter
	from, to int
	segs     []segment
	samples  int
}

// Encode encodes the kept samples of the chunks below to, one segment a
// chunk, into the unit that lands chunks [from, to). The buffer keeps
// its array for the chunks to come, so a day's chunk fills the one the
// day before closed.
func (w *GroupWriter) Encode(from, to int) Unit {
	u := Unit{w: w, from: from, to: to}
	lo := 0
	for lo < len(w.kept) {
		c := ChunkOf(w.kept[lo].Start, w.cpg)
		if c >= to {
			break
		}
		hi := lo + 1
		for hi < len(w.kept) && ChunkOf(w.kept[hi].Start, w.cpg) == c {
			hi++
		}
		blob, meta := segstore.EncodeSegment(w.kept[lo:hi])
		u.segs = append(u.segs, segment{id: w.group*w.cpg + c, samples: hi - lo, blob: blob, meta: meta})
		u.samples += hi - lo
		lo = hi
	}
	w.kept = w.kept[:copy(w.kept, w.kept[lo:])]
	return u
}

// extend appends v, the chunks that follow u's, to u.
func (u *Unit) extend(v Unit) {
	u.to = v.to
	u.segs = append(u.segs, v.segs...)
	u.samples += v.samples
}

// Write lands the unit in sw and reports the samples it committed. A
// dropped group tombstones each of the unit's chunks with the samples
// its fate cut there. Any other group's write fate commits the unit's
// segments, skipping any sw already holds from an interrupted run, or
// tombstones them. The caller commits the manifest; tb is the calling
// goroutine's buffer.
func (u Unit) Write(ctx context.Context, sw *segstore.Writer, tb *trace.Buf) (int, error) {
	w := u.w
	if w.fate.Dropped() {
		for c := u.from; c < u.to; c++ {
			sw.Tombstone(w.group*w.cpg+c, w.fate.Reason(), w.cut[c])
		}
		return 0, nil
	}
	ok, err := w.guard.Write(ctx, tb, w.group, u.samples,
		func() error {
			for _, s := range u.segs {
				if sw.Committed(s.id) {
					continue
				}
				if err := sw.Add(s.id, s.blob, s.meta); err != nil {
					return err
				}
			}
			return nil
		},
		func(reason string) error {
			for _, s := range u.segs {
				sw.Tombstone(s.id, reason, s.samples)
			}
			return nil
		})
	if !ok {
		return 0, err
	}
	return u.samples, err
}
