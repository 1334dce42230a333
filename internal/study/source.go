package study

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/agg"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pipeline"
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
	// deliver hands sk every sample in the source's canonical order, as
	// rows or as column batches, from a single goroutine. At e.Workers
	// ≤ 1 that goroutine is the caller's and does all the work.
	deliver(ctx context.Context, e *env, sk sink) error
	// config is the world.Config the report states, given the store the
	// delivered samples aggregated into.
	config(store *agg.Store) world.Config
}

// worldSource generates the dataset. It is the only source with a
// generator, so the only one the outage and batch fault surfaces apply
// to. tap, when set, also sees every sample that survives those
// surfaces and the hosting filter, in delivery order.
type worldSource struct {
	w   *world.World
	tap func(sample.Sample)
}

func (s *worldSource) seed() uint64                   { return s.w.Cfg.Seed }
func (s *worldSource) config(*agg.Store) world.Config { return s.w.Cfg }

func (s *worldSource) deliver(ctx context.Context, e *env, sk sink) error {
	s.w.Instrument(e.Reg)
	s.w.Rec = e.Trace
	if e.inj != nil {
		s.w.PoPDown = e.inj.Outage
	}
	// GenerateBatches calls back on one ordered goroutine (the one that
	// owns e.buf): outage losses are booked, a dropped batch delivers
	// nothing, a truncated one delivers its surviving prefix.
	return s.w.GenerateBatches(ctx, e.Workers, func(b world.Batch) error {
		e.guard.Outage(b.Lost)
		fate, err := e.guard.Batch(b.Group, len(b.Samples))
		if err != nil {
			return err
		}
		fate.Emit(e.buf)
		kept := b.Samples[:len(b.Samples)-fate.Lost]
		if s.tap != nil {
			for i := range kept {
				if !kept[i].HostingProvider { // mirrors the collectors' filter
					s.tap(kept[i])
				}
			}
		}
		return sk.rows(ctx, kept)
	})
}

// replay is what the dataset sources share: there is no generator, so
// fault decisions key on seed 0 and only the sink surface (and shard
// timing chaos) applies — line batches and segments are not group
// batches, and batch-level fates would not be comparable across worker
// counts — and the dataset's shape is inferred from what it held.
type replay struct{}

func (replay) seed() uint64                         { return 0 }
func (replay) config(store *agg.Store) world.Config { return inferredCfg(store) }

// jsonlSource replays a JSON-lines dataset, one record per line (the
// format sample.Writer emits): a sequential scanner splits lines into
// batches, e.Workers goroutines decode them, and a reorder stage
// restores the on-disk order. Every worker count splits and decodes
// with the same code, so a file is accepted or rejected — with the same
// line number — whatever the count.
type jsonlSource struct {
	replay
	r io.Reader
}

const linesPerBatch = 1024

// lineBatch is up to linesPerBatch consecutive non-empty lines.
type lineBatch struct {
	seq  int
	data []byte // concatenated lines
	ends []int  // end offset of each line in data
}

func (s *jsonlSource) deliver(ctx context.Context, e *env, sk sink) error {
	// Line buffers cycle through a pool: split fills a batch, decode
	// drains it and hands the backing arrays back. Steady state allocates
	// no new line buffers, whatever the dataset size.
	pool := sync.Pool{New: func() any { return new(lineBatch) }}
	readSpan := e.Reg.Span(obs.L("study_stage_seconds", "stage", "read"), "study")
	cSamples := e.Reg.Counter("study_samples_read_total")

	split := func(emit func(*lineBatch) error) error {
		sc := bufio.NewScanner(s.r)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		sp := readSpan.Start()
		defer sp.End()
		seq := 0
		cur := pool.Get().(*lineBatch)
		flush := func() error {
			full := cur
			full.seq = seq
			seq++
			cur = pool.Get().(*lineBatch)
			return emit(full)
		}
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			cur.data = append(cur.data, line...)
			cur.ends = append(cur.ends, len(cur.data))
			if len(cur.ends) >= linesPerBatch {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
		if len(cur.ends) > 0 {
			return flush()
		}
		return nil
	}
	type decBatch struct {
		seq  int
		rows []sample.Sample
	}
	// Rows failing e.Filter are dropped at decode — before reorder and
	// sharding — mirroring where the segment scanner applies the same
	// predicate.
	decode := func(lb *lineBatch, emit func(decBatch) error) error {
		db := decBatch{seq: lb.seq, rows: make([]sample.Sample, 0, len(lb.ends))}
		start := 0
		for i, end := range lb.ends {
			var smp sample.Sample
			if err := json.Unmarshal(lb.data[start:end], &smp); err != nil {
				return fmt.Errorf("decoding dataset line %d: %w", lb.seq*linesPerBatch+i+1, err)
			}
			start = end
			if e.Filter.Match(&smp) {
				db.rows = append(db.rows, smp)
			}
		}
		cSamples.Add(int64(len(lb.ends)))
		lb.data, lb.ends = lb.data[:0], lb.ends[:0]
		pool.Put(lb)
		return emit(db)
	}
	put := func(db decBatch) error { return sk.rows(ctx, db.rows) }

	if e.Workers <= 1 {
		return split(func(lb *lineBatch) error { return decode(lb, put) })
	}
	g := pipeline.NewGroup(ctx)
	lines := pipeline.NewStream[*lineBatch](e.Workers * 2)
	lines.Instrument(e.Reg, "decode")
	lines.Observe(e.Trace, "decode")
	decoded := pipeline.NewStream[decBatch](e.Workers * 2)
	decoded.Instrument(e.Reg, "reorder")
	decoded.Observe(e.Trace, "reorder")
	g.Go(func(ctx context.Context) error {
		defer lines.Close()
		return split(func(lb *lineBatch) error { return lines.Send(ctx, lb) })
	})
	g.GoPool(e.Workers, func(ctx context.Context, _ int) error {
		send := func(db decBatch) error { return decoded.Send(ctx, db) }
		return lines.Range(ctx, func(lb *lineBatch) error { return decode(lb, send) })
	}, decoded.Close)
	g.Go(func(ctx context.Context) error {
		return pipeline.Reorder(ctx, decoded, func(db decBatch) int { return db.seq }, 0, put)
	})
	return g.Wait()
}

// segmentSource replays a segment dataset directory: the manifest is
// pruned against e.Filter, surviving segments decode on e.Workers
// goroutines and arrive in manifest order as column batches.
type segmentSource struct {
	replay
	dir string
}

func (s *segmentSource) deliver(ctx context.Context, e *env, sk sink) (err error) {
	r, err := segstore.Open(s.dir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := r.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	r.Instrument(e.Reg)
	return r.ScanColumns(ctx, e.Workers, e.Filter, func(b *segstore.ColumnBatch) error {
		defer b.Release()
		if e.RowOracle {
			//edgelint:allow rowfree: opt.RowOracle explicitly requests the row currency for verification
			return sk.rows(ctx, b.AppendRows(make([]sample.Sample, 0, b.Len())))
		}
		return sk.columns(ctx, b)
	})
}
