package study

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/agg"
	"repro/internal/analysis"
	"repro/internal/collector"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/segstore"
	"repro/internal/trace"
	"repro/internal/world"

	"context"
	"sync"
	"time"
)

// Options configures a concurrent study run.
type Options struct {
	// Workers is the pipeline parallelism: generation (or dataset
	// decoding) workers and aggregation shards. 0 means
	// pipeline.DefaultWorkers (GOMAXPROCS); 1 runs the whole pipeline on
	// the calling goroutine — the determinism oracle the sharded path is
	// tested against.
	Workers int
	// Reg receives pipeline metrics (may be nil).
	Reg *obs.Registry
	// Plan, when non-nil, injects deterministic faults across the
	// pipeline (sink failures, batch corruption, PoP outages, shard
	// stalls) and makes Results carry a degradation ledger. The report
	// stays byte-identical at any worker count for a fixed (seed, plan).
	Plan *faults.Plan
	// FailFast makes the first non-recoverable fault poison the run
	// instead of quarantining the affected group and continuing.
	FailFast bool
	// Filter, when non-nil, restricts dataset replay (FromStream,
	// FromSamplesOpt, FromSegments) to matching rows. The segment path
	// additionally prunes whole segments against the manifest; the row
	// predicate is identical on every path, so filtered reports agree
	// byte for byte across formats. Ignored by generation runs.
	Filter *segstore.Filter
	// Trace, when non-nil, records the run's deterministic flight
	// trace: generation spans, batch fates, sink faults and retries,
	// quarantines, seals, and the coverage ledger summary. Tracing
	// forces the sharded pipeline even at Workers=1 (like a fault plan
	// does) so the trace is the same file the multi-worker run writes;
	// the caller flushes it with Trace.WriteFile after the run.
	Trace *trace.Recorder
	// RowOracle forces the segment path (FromSegments) to materialize
	// sample.Sample rows and aggregate row-at-a-time instead of feeding
	// column batches — the oracle the columnar hot path is verified
	// against: reports must be byte-identical either way. Slower;
	// exists for verification, not production use.
	RowOracle bool
}

func (o Options) workers() int {
	if o.Workers == 0 {
		return pipeline.DefaultWorkers()
	}
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// RunCtx generates the dataset for cfg and runs every analysis on a
// sharded concurrent pipeline (§3.3's structure: per-group sample
// streams hash-partitioned into shard-local aggregations, merged into
// one store). The rendered report is byte-identical at every worker
// count: per-group sample order is preserved end to end, shard stores
// partition the group-key space so their merge is exact, and the
// global Overview folds over the stream in sequential order.
func RunCtx(ctx context.Context, cfg world.Config, opt Options) (*Results, error) {
	start := startTimer()
	reg := opt.Reg
	workers := opt.workers()

	w := world.New(cfg)
	w.Instrument(reg)

	inj := faults.NewInjector(opt.Plan, w.Cfg.Seed)
	inj.Instrument(reg)
	guard := faults.NewGuard(inj, opt.FailFast)
	if inj != nil {
		w.PoPDown = inj.Outage
	}
	w.Rec = opt.Trace

	// Chaos and traced runs always take the sharded path (even at
	// workers=1): the guard and quarantine machinery live there, and the
	// determinism oracle for such a run is the same flags at another
	// worker count — including the trace bytes.
	if workers <= 1 && guard == nil && opt.Trace == nil {
		// Sequential oracle: one goroutine end to end.
		store := agg.NewStore()
		store.Instrument(reg)
		overview := analysis.NewOverview()
		overview.Instrument(reg)
		col := collector.New(
			collector.StoreSink(store),
			collector.FuncSink(overview.Add),
		)
		col.Instrument(reg)
		if err := w.GenerateCtx(ctx, 1, col.Offer); err != nil {
			return nil, err
		}
		if err := col.Err(); err != nil {
			return nil, err
		}
		res := &Results{Cfg: w.Cfg, Collector: col.Stats(), Overview: overview, Store: store}
		res.analyse(reg)
		res.Elapsed = elapsedSince(start)
		return res, nil
	}

	ing := newIngest(workers, reg, inj, guard, opt.Trace)
	g := pipeline.NewGroup(ctx)
	g.Trace(opt.Trace)
	ing.start(g)
	g.Go(func(ctx context.Context) error {
		defer ing.close()
		// The batch surface, applied on the ordered deliver goroutine
		// (which owns ing.buf): outage losses are booked, a dropped batch
		// feeds nothing, a truncated one feeds its surviving prefix.
		return w.GenerateBatches(ctx, workers, func(b world.Batch) error {
			guard.Outage(b.Lost)
			fate, err := guard.Batch(b.Group, len(b.Samples))
			if err != nil {
				return err
			}
			fate.Emit(ing.buf)
			return ing.feed(ctx, b.Samples[:len(b.Samples)-fate.Lost])
		})
	})
	if err := g.Wait(); err != nil {
		return nil, err
	}
	store, stats := ing.merge()
	cov := guard.Coverage()
	ing.traceFinish(store, cov)
	res := &Results{Cfg: w.Cfg, Collector: stats, Overview: ing.overview, Store: store, Coverage: cov}
	res.analyseConcurrent(ctx, reg, workers)
	res.Elapsed = elapsedSince(start)
	return res, nil
}

// FromStream runs every analysis over a JSON-lines dataset (as written
// by cmd/edgesim) on the sharded pipeline: a sequential scanner splits
// lines, a worker pool decodes them, and a reorder stage restores the
// on-disk order before the same sharded ingestion RunCtx uses — so the
// report is byte-identical to FromSamplesOpt over the same bytes.
func FromStream(ctx context.Context, r io.Reader, opt Options) (*Results, error) {
	start := startTimer()
	reg := opt.Reg
	workers := opt.workers()
	inj := faults.NewInjector(opt.Plan, 0)
	inj.Instrument(reg)
	guard := faults.NewGuard(inj, opt.FailFast)
	if workers <= 1 && guard == nil && opt.Trace == nil {
		return FromSamplesOpt(sample.NewReader(r), opt)
	}

	type lineBatch struct {
		seq  int
		data []byte // concatenated lines
		ends []int  // end offset of each line in data
	}
	type decBatch struct {
		seq     int
		samples []sample.Sample
	}

	const linesPerBatch = 1024

	// Line buffers cycle through a pool: the scanner fills a batch, a
	// decode worker drains it and hands the backing arrays back. Steady
	// state allocates no new line buffers, whatever the dataset size.
	batchPool := sync.Pool{New: func() any { return new(lineBatch) }}

	// Replayed datasets have no generator, so only the sink surface (and
	// shard timing chaos) applies: line batches are not group batches,
	// and batch-level fates would not be comparable across worker counts.
	ing := newIngest(workers, reg, inj, guard, opt.Trace)
	g := pipeline.NewGroup(ctx)
	g.Trace(opt.Trace)
	lines := pipeline.NewStream[*lineBatch](workers * 2)
	lines.Instrument(reg, "decode")
	lines.Observe(opt.Trace, "decode")
	decoded := pipeline.NewStream[decBatch](workers * 2)
	decoded.Instrument(reg, "reorder")
	decoded.Observe(opt.Trace, "reorder")
	readSpan := reg.Span(obs.L("study_stage_seconds", "stage", "read"), "study")
	cSamples := reg.Counter("study_samples_read_total")

	// Stage 1: split the stream into line batches (sequential, cheap).
	g.Go(func(ctx context.Context) error {
		defer lines.Close()
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		seq := 0
		cur := batchPool.Get().(*lineBatch)
		cur.seq = seq
		sp := readSpan.Start()
		defer sp.End()
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			cur.data = append(cur.data, line...)
			cur.ends = append(cur.ends, len(cur.data))
			if len(cur.ends) >= linesPerBatch {
				if err := lines.Send(ctx, cur); err != nil {
					return err
				}
				seq++
				cur = batchPool.Get().(*lineBatch)
				cur.seq = seq
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
		if len(cur.ends) > 0 {
			if err := lines.Send(ctx, cur); err != nil {
				return err
			}
		}
		return nil
	})

	// Stage 2: decode workers. Rows failing opt.Filter are dropped here
	// — before reorder and sharding — mirroring where the segment
	// scanner applies the same predicate.
	g.GoPool(workers, func(ctx context.Context, _ int) error {
		return lines.Range(ctx, func(lb *lineBatch) error {
			db := decBatch{seq: lb.seq, samples: make([]sample.Sample, 0, len(lb.ends))}
			startOff := 0
			for i, end := range lb.ends {
				var s sample.Sample
				if err := json.Unmarshal(lb.data[startOff:end], &s); err != nil {
					return fmt.Errorf("decoding dataset line %d: %w", lb.seq*linesPerBatch+i+1, err)
				}
				startOff = end
				if opt.Filter.Match(&s) {
					db.samples = append(db.samples, s)
				}
			}
			cSamples.Add(int64(len(lb.ends)))
			lb.data, lb.ends = lb.data[:0], lb.ends[:0]
			batchPool.Put(lb)
			return decoded.Send(ctx, db)
		})
	}, decoded.Close)

	// Stage 3: restore on-disk order, then shard.
	g.Go(func(ctx context.Context) error {
		defer ing.close()
		return pipeline.Reorder(ctx, decoded, func(db decBatch) int { return db.seq }, 0,
			func(db decBatch) error { return ing.feed(ctx, db.samples) })
	})
	ing.start(g)

	if err := g.Wait(); err != nil {
		return nil, err
	}
	store, stats := ing.merge()
	cov := guard.Coverage()
	ing.traceFinish(store, cov)
	res := &Results{
		Cfg:       inferredCfg(store),
		Collector: stats,
		Overview:  ing.overview,
		Store:     store,
		Coverage:  cov,
	}
	res.analyseConcurrent(ctx, reg, workers)
	res.Elapsed = elapsedSince(start)
	return res, nil
}

// ingest is the sharded back half of the pipeline: an ordered Overview
// fold plus N collector shards, each filtering its share of the stream
// into a shard-local aggregation store. feed is called with batches in
// sequential order; samples are routed to shards by group-key hash, so
// each (group, window, route) digest sees exactly the subsequence — in
// exactly the order — it would under sequential ingestion, which is why
// the final merge is exact rather than approximate.
type ingest struct {
	shards   []*ingestShard
	overview *analysis.Overview
	foldSpan *obs.SpanTimer
	inj      *faults.Injector
	rec      *trace.Recorder
	buf      *trace.Buf // owned by the ordered deliver goroutine
	feedHist *obs.Histogram
	feedN    uint64
	cuts     []shardCut // feedColumns scratch (deliver goroutine)
}

// shardCut is one batch view bound for one shard.
type shardCut struct {
	shard uint32
	view  *segstore.ColumnBatch
}

// shardItem is one run of consecutive same-shard samples in either
// pipeline currency: decoded rows (generation, JSONL replay) or a
// column-batch view (segment scans). Exactly one field is set.
type shardItem struct {
	rows []sample.Sample
	cols *segstore.ColumnBatch
}

type ingestShard struct {
	stream *pipeline.Stream[shardItem]
	col    *collector.Collector
	store  *agg.Store
	span   *obs.SpanTimer
	guard  *shardGuard
	// rows is the guard path's materialization scratch: per-sample fault
	// decisions need row structs, so chaos runs convert batch views back
	// to rows here (reused across items; the shard worker owns it).
	rows []sample.Sample
}

func newIngest(shards int, reg *obs.Registry, inj *faults.Injector, guard *faults.Guard, rec *trace.Recorder) *ingest {
	ov := analysis.NewOverview()
	ov.Instrument(reg)
	in := &ingest{
		overview: ov,
		foldSpan: reg.Span(obs.L("study_stage_seconds", "stage", "overview_fold"), "study"),
		inj:      inj,
		rec:      rec,
		buf:      rec.Buf(),
		feedHist: reg.Histogram("study_feed_batch_samples", []float64{1, 8, 64, 256, 1024, 4096, 16384}),
	}
	for i := 0; i < shards; i++ {
		st := agg.NewStore()
		st.Instrument(reg)
		col := collector.New(collector.StoreSink(st))
		col.AddColumnSink(collector.StoreColumnSink(st))
		col.Instrument(reg)
		sh := &ingestShard{
			stream: pipeline.NewStream[shardItem](4),
			col:    col,
			store:  st,
			span:   reg.Span(obs.L("study_stage_seconds", "stage", "agg_shard"), "study"),
		}
		if guard != nil {
			// Each shard worker owns its guard, so each guard gets its own
			// single-owner ring; flush sorts all rings canonically.
			sh.guard = &shardGuard{guard: guard, col: col, store: st, qidx: make(map[sample.GroupKey]int), buf: rec.Buf()}
		}
		sh.stream.Instrument(reg, fmt.Sprintf("agg_shard_%d", i))
		sh.stream.Observe(rec, fmt.Sprintf("agg_shard_%d", i))
		in.shards = append(in.shards, sh)
	}
	return in
}

// start launches one worker per shard in g. Under a fault plan the
// workers run with the plan's stage budget (a stalled shard trips a
// StageTimeoutError instead of hanging the run) and injected dispatch
// delays — timing chaos that must not change one output byte.
func (in *ingest) start(g *pipeline.Group) {
	for i, sh := range in.shards {
		i, sh := i, sh
		run := func(ctx context.Context) error {
			n := 0
			err := sh.stream.Range(ctx, func(it shardItem) error {
				if d := in.inj.ShardDelay(i, n); d > 0 {
					time.Sleep(d)
				}
				n++
				sp := sh.span.Start()
				defer sp.End()
				if it.cols != nil {
					defer it.cols.Release()
					if sh.guard != nil {
						// Sink-fault decisions are per sample (keyed by SessionID and
						// group key), so chaos runs materialize the view back to rows
						// — the price of keeping degraded reports byte-identical to
						// the row oracle.
						sh.rows = it.cols.AppendRows(sh.rows[:0]) //edgelint:allow rowfree: per-sample fault decisions need row structs
						for _, s := range sh.rows {
							if err := sh.guard.offer(ctx, s); err != nil {
								return err
							}
						}
						return nil
					}
					sh.col.OfferColumns(it.cols)
					return sh.col.Err()
				}
				if sh.guard != nil {
					for _, s := range it.rows {
						if err := sh.guard.offer(ctx, s); err != nil {
							return err
						}
					}
					return nil
				}
				for _, s := range it.rows {
					sh.col.Offer(s)
				}
				return sh.col.Err()
			})
			if err != nil {
				// Poisoned: views still buffered in this shard's stream will
				// never reach the callback above; release them or the parent
				// batches leak. The feed goroutine's deferred close
				// guarantees Drain terminates.
				sh.stream.Drain(func(it shardItem) {
					if it.cols != nil {
						it.cols.Release()
					}
				})
			}
			return err
		}
		g.GoBudget(fmt.Sprintf("agg_shard_%d", i), in.inj.StageBudget(), run)
	}
}

// close marks the producer side done; call once no more feeds follow.
func (in *ingest) close() {
	for _, sh := range in.shards {
		sh.stream.Close()
	}
}

// feed folds one ordered batch into the Overview and routes it to the
// shards in runs of consecutive same-shard samples (keys change only at
// window boundaries, so runs are long and the per-sample routing cost
// is a struct compare).
func (in *ingest) feed(ctx context.Context, samples []sample.Sample) error {
	if len(samples) == 0 {
		return nil
	}
	if in.buf != nil {
		// One mark per delivered batch on the run track. feed runs on the
		// ordered deliver goroutine, so feedN is a deterministic stream
		// position; the event ID doubles as the histogram exemplar,
		// linking the exposition's tail bucket back to a trace line.
		id := in.buf.Emit(trace.Event{
			Track: trace.TrackRun, Phase: trace.PhaseIngest, Win: -1, Seq: in.feedN,
			Kind: trace.KMark, Stage: "feed", Value: int64(len(samples)),
		})
		in.feedHist.ObserveExemplar(float64(len(samples)), id)
		if in.feedN%64 == 0 {
			in.rec.SampleQueues()
		}
		in.feedN++
	}
	sp := in.foldSpan.Start()
	for i := range samples {
		if samples[i].HostingProvider {
			continue // mirrors the shard collectors' filter (KeepHosting=false)
		}
		in.overview.Add(samples[i])
	}
	sp.End()

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
		if err := in.shards[shard].stream.Send(ctx, shardItem{rows: samples[runStart:i]}); err != nil {
			return err
		}
		runStart, shard = i, next
	}
	return in.shards[shard].stream.Send(ctx, shardItem{rows: samples[runStart:]})
}

// feedColumns is feed in the columnar currency: one ordered batch is
// folded into the Overview and routed to the shards as batch views cut
// at shard boundaries (group-key runs compare dictionary indexes, so
// routing never touches row structs). Trace marks, the feed histogram,
// and queue sampling fire exactly as on the row path — same events,
// same coordinates — so traced columnar runs stay byte-identical to
// the row oracle's trace. Takes ownership of b; views handed to shard
// workers keep the batch alive until each releases its reference.
func (in *ingest) feedColumns(ctx context.Context, b *segstore.ColumnBatch) error {
	n := b.Len()
	if n == 0 {
		b.Release()
		return nil
	}
	if in.buf != nil {
		id := in.buf.Emit(trace.Event{
			Track: trace.TrackRun, Phase: trace.PhaseIngest, Win: -1, Seq: in.feedN,
			Kind: trace.KMark, Stage: "feed", Value: int64(n),
		})
		in.feedHist.ObserveExemplar(float64(n), id)
		if in.feedN%64 == 0 {
			in.rec.SampleQueues()
		}
		in.feedN++
	}
	sp := in.foldSpan.Start()
	in.overview.AddColumns(b)
	sp.End()

	// Every view is cut before any is sent: Slice reads the parent's
	// RespEnds[lo-1] — the last row of the previous view — and once a
	// shard worker owns that view, its Compact may rewrite the row.
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
	b.Release() // the views keep the batch alive
	for j, c := range in.cuts {
		if err := in.shards[c.shard].stream.Send(ctx, shardItem{cols: c.view}); err != nil {
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

// merge reduces the shards: stats sum; stores merge through the agg
// merge path (exact here, because the key space is partitioned).
func (in *ingest) merge() (*agg.Store, collector.Stats) {
	store := in.shards[0].store
	stats := in.shards[0].col.Stats()
	for _, sh := range in.shards[1:] {
		store.Merge(sh.store)
		stats = stats.Merge(sh.col.Stats())
	}
	return store, stats
}

// traceFinish emits the run's closing events after Wait: one seal per
// surviving group series (value = its session count, the weight the
// critical-path extraction sums) and the finalized coverage ledger on
// the run track. Runs on the caller's goroutine, after every stage has
// returned, so buffer ownership is unambiguous. No-op when untraced.
func (in *ingest) traceFinish(store *agg.Store, cov *faults.Coverage) {
	if in.buf == nil {
		return
	}
	for _, gs := range store.Groups() {
		in.buf.Emit(trace.Event{
			Track: gs.Key.String(), Phase: trace.PhaseSeal, Win: -1, Seq: 0,
			Kind: trace.KSeal, Stage: "seal", Value: int64(gs.TotalSessions()),
		})
	}
	cov.EmitTrace(in.buf)
	in.rec.SampleQueues()
}

// analyseConcurrent is analyse with the independent §5/§6 analyses
// fanned out over the merged store. The store is sealed first: digest
// reads fold lazily buffered points, so sealing is what makes the
// shared store safe for concurrent readers.
func (r *Results) analyseConcurrent(ctx context.Context, reg *obs.Registry, workers int) {
	if workers <= 1 {
		r.analyse(reg)
		return
	}
	r.Store.Seal(workers)
	params := analysis.DefaultClassifyParams(r.Cfg.Days)
	windows := r.Store.TotalWindows
	if windows == 0 {
		windows = r.Cfg.Windows()
	}
	timed := func(name string, f func()) func(context.Context) error {
		return func(context.Context) error {
			reg.Span(obs.L("analysis_seconds", "analysis", name), "analyse").Time(f)
			return nil
		}
	}

	g := pipeline.NewGroup(ctx)
	g.Go(timed("degradation_minrtt", func() { r.DegMinRTT = analysis.Degradation(r.Store, analysis.MetricMinRTT) }))
	g.Go(timed("degradation_hdratio", func() { r.DegHD = analysis.Degradation(r.Store, analysis.MetricHDratio) }))
	g.Go(timed("opportunity_minrtt", func() { r.OppMinRTT = analysis.Opportunity(r.Store, analysis.MetricMinRTT) }))
	g.Go(timed("opportunity_hdratio", func() { r.OppHD = analysis.Opportunity(r.Store, analysis.MetricHDratio) }))
	_ = g.Wait() // the analyses cannot fail

	// Classification needs all four results; Table 2 only the
	// opportunity pair — a second, smaller fan-out.
	g = pipeline.NewGroup(ctx)
	g.Go(timed("classify", func() {
		r.Table1DegMinRTT = r.DegMinRTT.Classify(windows, params, Table1DegMinRTTMs)
		r.Table1DegHD = r.DegHD.Classify(windows, params, Table1DegHD)
		r.Table1OppMinRTT = r.OppMinRTT.Classify(windows, params, Table1OppMinRTTMs)
		r.Table1OppHD = r.OppHD.Classify(windows, params, Table1OppHD)
	}))
	g.Go(timed("relationships", func() {
		r.Table2MinRTT = r.OppMinRTT.Relationships(5)
		r.Table2HD = r.OppHD.Relationships(0.05)
	}))
	_ = g.Wait()
}
