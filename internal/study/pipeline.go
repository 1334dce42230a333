package study

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/agg"
	"repro/internal/analysis"
	"repro/internal/collector"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/segstore"
	"repro/internal/trace"
)

// sink is where a source delivers the study's samples: batches arrive
// on one goroutine, each user group's samples in their canonical order,
// in either pipeline currency. The ingest is the one sink; tests
// interpose on it.
type sink interface {
	// rows takes one batch of decoded rows (generation, the row oracle),
	// whose run-track feed mark is keyed at seg, a world day's segment
	// ID, or below 0 at its stream position. The sink may keep the slice
	// until the run ends.
	rows(ctx context.Context, seg int, samples []sample.Sample) error
	// columns takes one column batch (segment scans), borrowed for the
	// call: the caller releases it, a sink that hands parts of it on
	// retains them (Slice).
	columns(ctx context.Context, b *segstore.ColumnBatch) error
}

// item is one run of samples bound for one collector, in either
// currency. Exactly one field is set.
type item struct {
	rows []sample.Sample
	cols *segstore.ColumnBatch
}

// row reads what the sink fault surface decides on of row i, in either
// currency: its SessionID, user group and hosting flag.
func (it item) row(i int) (id uint64, key sample.GroupKey, hosting bool) {
	if it.cols != nil {
		return it.cols.SessionID[i], it.cols.KeyAt(i), it.cols.HostingProvider[i]
	}
	s := &it.rows[i]
	return s.SessionID, s.Key(), s.HostingProvider
}

// ingest is where a source delivers the study's samples: a chain of
// the Overview's two lanes (analysis.Overview.Lanes) and N collector
// shards, each filtering its share of the stream into a shard-local
// aggregation store (one shard at one worker). Batches arrive from one
// goroutine, each user group's samples in their canonical order, in
// either pipeline currency. That goroutine folds the sessions lane and
// hands each batch on to the overview_lane goroutine, which folds the
// routes lane and then routes the batch to the shards, each on a
// goroutine of its own. Samples are routed by group-key hash, so each
// (group, window, route) digest — like each of the Overview's per-group
// accumulators — sees exactly the subsequence, in exactly the order, it
// would if one collector took the whole stream, which is why the final
// merge is exact rather than approximate.
//
// The lanes form a chain, not a fan-out, because a shard compacts its
// views in place and a view is a region of the delivered batch: only
// once the routes lane is done reading a batch may shards own parts of
// it.
//
// Under a fault plan the routes lane also decides the sink surface
// (sinkFates): it is the one goroutine that sees every sample, each
// group's in order, after both Overview lanes and before any store, so a
// shard only ever folds what it is handed, and a quarantined user group
// is withdrawn once, from the merged store.
//
// A one-shard ingest is never merged, so with neither a fault plan nor a
// trace it can take more samples after finish: start it again and the
// next source's samples land on top of what it holds — what a Segments
// study keeps between advances.
type ingest struct {
	shards   []*ingestShard
	overview *analysis.Overview
	// sessions is folded on the deliver goroutine, routes on the lane's.
	sessions, routes analysis.Lane
	lane             *pipeline.Stream[item] // delivered batches, to the routes lane; one per start
	reg              *obs.Registry
	foldSpan         *obs.SpanTimer
	laneSpan         *obs.SpanTimer
	inj              *faults.Injector
	buf              *trace.Buf // owned by the deliver goroutine
	feedHist         *obs.Histogram
	feedN            uint64
	cuts             []shardCut // columns scratch (lane goroutine)

	// The sink fault surface, set under a fault plan and owned by the lane
	// goroutine: the guard, the lane's trace ring (flush sorts all rings
	// canonically), each user group's rows routed to a shard so far, each
	// quarantined group's ledger entry, and the per-item keep scratch.
	guard       *faults.Guard
	laneBuf     *trace.Buf
	held        map[sample.GroupKey]int
	quarantined map[sample.GroupKey]int
	keep        []bool
}

// shardCut is one batch view bound for one shard.
type shardCut struct {
	shard uint32
	view  *segstore.ColumnBatch
}

type ingestShard struct {
	stream *pipeline.Stream[item] // runs of consecutive same-shard samples; one per start
	col    *collector.Collector
	store  *agg.Store
	span   *obs.SpanTimer
}

func newIngest(shards int, reg *obs.Registry, inj *faults.Injector, guard *faults.Guard, rec *trace.Recorder) *ingest {
	ov := analysis.NewOverview()
	ov.Instrument(reg)
	in := &ingest{
		overview: ov,
		reg:      reg,
		foldSpan: reg.Span(obs.L("study_stage_seconds", "stage", "overview_fold"), "study"),
		laneSpan: reg.Span(obs.L("study_stage_seconds", "stage", "overview_lane"), "study"),
		inj:      inj,
		buf:      rec.Buf(),
		feedHist: reg.Histogram("study_feed_batch_samples", []float64{1, 8, 64, 256, 1024, 4096, 16384}),
	}
	if guard != nil {
		in.guard, in.laneBuf = guard, rec.Buf()
		in.held, in.quarantined = make(map[sample.GroupKey]int), make(map[sample.GroupKey]int)
	}
	for i := 0; i < shards; i++ {
		st := agg.NewStore()
		st.Instrument(reg)
		col := collector.New(collector.StoreSink(st))
		col.AddColumnSink(collector.StoreColumnSink(st))
		col.Instrument(reg)
		in.shards = append(in.shards, &ingestShard{
			col:   col,
			store: st,
			span:  reg.Span(obs.L("study_stage_seconds", "stage", "agg_shard"), "study"),
		})
	}
	in.sessions, in.routes = ov.Lanes()
	return in
}

// keeps reports whether in can take more samples after finish.
func (in *ingest) keeps() bool {
	return len(in.shards) == 1 && in.guard == nil && in.buf == nil
}

// start opens the lane's and each shard's stream — close spends them —
// and launches the lane's goroutine and one worker per shard in g. Under
// a fault plan the shard workers take injected dispatch delays — timing
// chaos that must not change one output byte.
func (in *ingest) start(g *pipeline.Group) {
	// Four batches, as each shard's stream takes: room for the two lanes'
	// per-batch costs to drift apart without the sessions lane waiting.
	in.lane = pipeline.NewStream[item](4)
	in.lane.Instrument(in.reg, "overview_lane")
	for i, sh := range in.shards {
		sh.stream = pipeline.NewStream[item](4)
		sh.stream.Instrument(in.reg, fmt.Sprintf("agg_shard_%d", i))
	}
	g.Go(func(ctx context.Context) error {
		// The lane is the shards' one producer.
		defer func() {
			for _, sh := range in.shards {
				sh.stream.Close()
			}
		}()
		return drainOnError(in.lane, in.lane.Range(ctx, func(it item) error {
			return in.route(ctx, it)
		}))
	})
	for i, sh := range in.shards {
		g.Go(func(ctx context.Context) error {
			n := 0
			return drainOnError(sh.stream, sh.stream.Range(ctx, func(it item) error {
				if d := in.inj.ShardDelay(i, n); d > 0 {
					time.Sleep(d)
				}
				n++
				return sh.consume(it)
			}))
		})
	}
}

// drainOnError returns err, first releasing — when err poisoned the
// stage — every view still buffered in its input s: those will never be
// consumed, and the parent batches would leak. s's producer closes it
// once its own sends fail (study.run's deferred close, the lane's
// deferred shard closes), so Drain terminates.
func drainOnError(s *pipeline.Stream[item], err error) error {
	if err != nil {
		s.Drain(func(it item) {
			if it.cols != nil {
				it.cols.Release()
			}
		})
	}
	return err
}

// consume offers one routed item to the shard's collector, which
// filters it and folds it into the shard's store, and releases its view.
func (sh *ingestShard) consume(it item) error {
	sp := sh.span.Start()
	defer sp.End()
	if it.cols != nil {
		defer it.cols.Release()
		sh.col.OfferColumns(it.cols)
	}
	for i := range it.rows {
		sh.col.Offer(it.rows[i])
	}
	return sh.col.Err()
}

// mark opens one delivered batch of n samples on the run track, keyed
// at seg, a world day's segment ID, when seg ≥ 0, and otherwise at its
// stream position. It runs on the deliver goroutine, so either key is
// deterministic: a world day's is the same in whatever order the groups
// finish, and a position is the same in either currency, which keeps
// traced columnar replays byte-identical to the row oracle's trace. The
// event ID doubles as the histogram exemplar, linking the exposition's
// tail bucket back to a trace line.
func (in *ingest) mark(seg, n int) {
	if in.buf == nil {
		return
	}
	seq := uint64(seg)
	if seg < 0 {
		seq = in.feedN
		in.feedN++
	}
	id := in.buf.Emit(trace.Event{
		Track: trace.TrackRun, Phase: trace.PhaseIngest, Win: -1, Seq: seq,
		Kind: trace.KMark, Stage: "feed", Value: int64(n),
	})
	in.feedHist.ObserveExemplar(float64(n), id)
}

// rows folds one batch into the sessions lane and hands it on to the
// routes lane, as is: the lane goroutine only reads it.
func (in *ingest) rows(ctx context.Context, seg int, samples []sample.Sample) error {
	if len(samples) == 0 {
		return nil
	}
	in.mark(seg, len(samples))
	sp := in.foldSpan.Start()
	foldRows(in.sessions.Add, samples)
	sp.End()
	return in.lane.Send(ctx, item{rows: samples})
}

// columns is rows in the columnar currency: the lane gets a view of the
// whole batch, which keeps it alive past the caller's release.
func (in *ingest) columns(ctx context.Context, b *segstore.ColumnBatch) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	in.mark(-1, n)
	sp := in.foldSpan.Start()
	in.sessions.AddColumns(b)
	sp.End()
	it := item{cols: b.Slice(0, n)}
	if err := in.lane.Send(ctx, it); err != nil {
		it.cols.Release()
		return err
	}
	return nil
}

// foldRows hands add every sample but the hosting providers', mirroring
// the shard collectors' filter.
func foldRows(add func(sample.Sample), samples []sample.Sample) {
	for i := range samples {
		if !samples[i].HostingProvider {
			add(samples[i])
		}
	}
}

// route runs on the lane goroutine: it folds one delivered item into the
// routes lane, decides its sink fates under a fault plan, then routes
// what is kept to the shards, releasing its view.
func (in *ingest) route(ctx context.Context, it item) error {
	sp := in.laneSpan.Start()
	if it.cols != nil {
		defer it.cols.Release()
		in.routes.AddColumns(it.cols)
	} else {
		foldRows(in.routes.Add, it.rows)
	}
	sp.End()
	if in.guard != nil {
		var err error
		if it, err = in.sinkFates(ctx, it); err != nil {
			return err
		}
	}
	switch {
	case it.cols != nil && it.cols.Len() > 0:
		return in.routeColumns(ctx, it.cols)
	case len(it.rows) > 0:
		return in.routeRows(ctx, it.rows)
	}
	return nil // every row was dropped
}

// sinkFates runs one item through the sink fault surface, row by row in
// delivery order, and returns what is kept. Fault decisions key on
// SessionID and group key, so the outcome is identical at any worker
// count and in either currency. A hosting row passes: the shard
// collector filters and counts it. A quarantined group's row is refused.
// Any other row is kept unless the guard quarantines its group, whose
// ledger entry then counts it and every row of the group routed before
// it (finish withdraws those from the merged store). Only an item that
// lost rows changes: its view is compacted in place — the lane is its
// last reader, the sessions lane having folded it before the send — and
// its kept rows are copied, since the source may keep its slice.
func (in *ingest) sinkFates(ctx context.Context, it item) (item, error) {
	n := len(it.rows)
	if it.cols != nil {
		n = it.cols.Len()
	}
	in.keep = in.keep[:0]
	for i := 0; i < n; i++ {
		id, k, hosting := it.row(i)
		in.keep = append(in.keep, hosting)
		if hosting {
			continue
		}
		if entry, ok := in.quarantined[k]; ok {
			in.guard.Refuse(in.laneBuf, entry, id, 1)
			continue
		}
		entry, err := in.guard.Sink(ctx, in.laneBuf, id, k.String(), in.held[k])
		switch {
		case err != nil:
			return it, err
		case entry >= 0:
			in.quarantined[k] = entry
		default:
			in.held[k]++
			in.keep[i] = true
		}
	}
	switch {
	case !slices.Contains(in.keep, false):
		return it, nil
	case it.cols != nil:
		it.cols.Compact(func(i int) bool { return in.keep[i] })
		return it, nil
	}
	var rows []sample.Sample
	for i := range it.rows {
		if in.keep[i] {
			rows = append(rows, it.rows[i])
		}
	}
	return item{rows: rows}, nil
}

// routeRows sends samples to the shards in runs of consecutive
// same-shard samples (keys change only at window boundaries, so runs are
// long and the per-sample routing cost is a struct compare).
func (in *ingest) routeRows(ctx context.Context, samples []sample.Sample) error {
	nShards := uint32(len(in.shards))
	runStart := 0
	key := samples[0].Key()
	shard := key.Hash() % nShards
	for i := 1; i < len(samples); i++ {
		k := samples[i].Key()
		if k == key {
			continue
		}
		next := k.Hash() % nShards
		key = k
		if next == shard {
			continue
		}
		if err := in.shards[shard].stream.Send(ctx, item{rows: samples[runStart:i]}); err != nil {
			return err
		}
		runStart, shard = i, next
	}
	return in.shards[shard].stream.Send(ctx, item{rows: samples[runStart:]})
}

// routeColumns is routeRows in the columnar currency: b is cut into views
// at shard boundaries (group-key runs compare dictionary indexes, so
// routing never touches row structs). Views handed to shard workers keep
// the batch alive until each releases its reference.
func (in *ingest) routeColumns(ctx context.Context, b *segstore.ColumnBatch) error {
	// Every view is cut before any is sent: Slice reads the parent's
	// RespEnds[lo-1] — the last row of the previous view — and once a
	// shard worker owns that view, its Compact may rewrite the row.
	n := b.Len()
	nShards := uint32(len(in.shards))
	in.cuts = in.cuts[:0]
	runStart := 0
	shard := b.KeyAt(0).Hash() % nShards
	for i := b.KeyRunEnd(0); i < n; i = b.KeyRunEnd(i) {
		if next := b.KeyAt(i).Hash() % nShards; next != shard {
			in.cuts = append(in.cuts, shardCut{shard, b.Slice(runStart, i)})
			runStart, shard = i, next
		}
	}
	in.cuts = append(in.cuts, shardCut{shard, b.Slice(runStart, n)})
	for j, c := range in.cuts {
		if err := in.shards[c.shard].stream.Send(ctx, item{cols: c.view}); err != nil {
			// This view and the ones behind it hold retained references
			// on b that no shard worker will ever release.
			for _, rest := range in.cuts[j:] {
				rest.view.Release()
			}
			return err
		}
	}
	return nil
}

// finish reduces the shards — stats sum; stores merge through the agg
// merge path (exact here, because the key space is partitioned) —
// withdraws every quarantined user group from the merged store (the
// samples routed before its quarantine, which its ledger entry counts),
// and emits the run's closing trace events: one seal per surviving group
// series (value = its session count, the weight the critical-path
// extraction sums) and the finalized coverage ledger on the run track.
// It runs on the caller's goroutine after every stage has returned, so
// buffer ownership is unambiguous.
func (in *ingest) finish(cov *faults.Coverage) (*agg.Store, collector.Stats, *analysis.Overview) {
	store := in.shards[0].store
	stats := in.shards[0].col.Stats()
	for _, sh := range in.shards[1:] {
		store.Merge(sh.store)
		stats = stats.Merge(sh.col.Stats())
	}
	for k := range in.quarantined {
		store.Remove(k) // in any order: each withdraws its own group
	}
	if in.buf != nil {
		for _, gs := range store.Groups() {
			in.buf.Emit(trace.Event{
				Track: gs.Key.String(), Phase: trace.PhaseSeal, Win: -1, Seq: 0,
				Kind: trace.KSeal, Stage: "seal", Value: int64(gs.TotalSessions()),
			})
		}
		cov.EmitTrace(in.buf)
	}
	return store, stats, in.overview
}
