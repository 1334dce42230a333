package study

import (
	"context"

	"repro/internal/agg"
	"repro/internal/analysis"
	"repro/internal/collector"
	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/segstore"
)

// FromSegments runs every analysis over a segment dataset directory (as
// written by `edgesim -format seg` or segcat). The manifest is pruned
// against opt.Filter before any segment byte is read; surviving
// segments decode on opt.Workers goroutines and feed the same sharded
// ingestion the JSONL paths use, in manifest order — so the rendered
// report is byte-identical to the JSONL path over the same samples, at
// every worker count.
//
// By default the path is row-free end to end: decoded column batches
// flow from the scanner through the collector into the store's batch
// fold without ever materializing sample.Sample structs. opt.RowOracle
// re-enables the row currency (and chaos runs materialize rows inside
// the shard workers, where per-sample fault decisions are made); either
// way the report bytes are identical — that equivalence is this path's
// standing correctness check.
func FromSegments(ctx context.Context, dir string, opt Options) (res *Results, err error) {
	start := startTimer()
	reg := opt.Reg
	workers := opt.workers()
	inj := faults.NewInjector(opt.Plan, 0)
	inj.Instrument(reg)
	guard := faults.NewGuard(inj, opt.FailFast)

	r, err := segstore.Open(dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := r.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	r.Instrument(reg)

	var store *agg.Store
	var stats collector.Stats
	var overview *analysis.Overview
	var coverage *faults.Coverage

	if workers <= 1 && guard == nil && opt.Trace == nil {
		// Sequential oracle: one goroutine end to end.
		store = agg.NewStore()
		store.Instrument(reg)
		overview = analysis.NewOverview()
		overview.Instrument(reg)
		col := collector.New()
		col.Instrument(reg)
		if opt.RowOracle {
			col.AddSink(collector.StoreSink(store))
			col.AddSink(collector.FuncSink(overview.Add))
			//edgelint:allow rowfree: opt.RowOracle explicitly requests the row currency for verification
			err = r.Scan(ctx, 1, opt.Filter, func(rows []sample.Sample) error {
				for i := range rows {
					col.Offer(rows[i])
				}
				return col.Err()
			})
		} else {
			col.AddColumnSink(collector.StoreColumnSink(store))
			col.AddColumnSink(collector.ColumnFuncSink(overview.AddColumns))
			err = r.ScanColumns(ctx, 1, opt.Filter, func(b *segstore.ColumnBatch) error {
				col.OfferColumns(b)
				b.Release()
				return col.Err()
			})
		}
		if err != nil {
			return nil, err
		}
		stats = col.Stats()
	} else {
		// Sharded path: the scanner's ordered emit is the feed stage.
		ing := newIngest(workers, reg, inj, guard, opt.Trace)
		g := pipeline.NewGroup(ctx)
		g.Trace(opt.Trace)
		ing.start(g)
		g.Go(func(ctx context.Context) error {
			defer ing.close()
			if opt.RowOracle {
				//edgelint:allow rowfree: opt.RowOracle explicitly requests the row currency for verification
				return r.Scan(ctx, workers, opt.Filter, func(rows []sample.Sample) error {
					// Scan reuses its row buffer across emits, but feed retains
					// run slices in the shard streams — so the oracle copies.
					return ing.feed(ctx, append([]sample.Sample(nil), rows...))
				})
			}
			return r.ScanColumns(ctx, workers, opt.Filter, func(b *segstore.ColumnBatch) error {
				return ing.feedColumns(ctx, b)
			})
		})
		if err = g.Wait(); err != nil {
			return nil, err
		}
		store, stats = ing.merge()
		overview = ing.overview
		coverage = guard.Coverage()
		ing.traceFinish(store, coverage)
	}

	res = &Results{
		Cfg:       inferredCfg(store),
		Collector: stats,
		Overview:  overview,
		Store:     store,
		Coverage:  coverage,
	}
	res.analyseConcurrent(ctx, reg, workers)
	res.Elapsed = elapsedSince(start)
	return res, nil
}
