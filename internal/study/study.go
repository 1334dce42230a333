// Package study orchestrates the full measurement study: it runs the
// synthetic world through the collection pipeline, aggregates per
// §3.3, and executes every analysis in the paper's evaluation —
// producing the data behind Figures 1–3 and 6–10 and Tables 1–2.
// cmd/edgereport, the examples, and the benchmark harness all drive
// this package.
//
// The study is one loop whatever feeds it, and one pipeline at every
// worker count. run owns it: the fault injector and guard, the shard
// group's lifecycle, merge, coverage, trace finish, the Results and the
// analyses. A source (source.go: the world generator or a segment
// directory — the one dataset format; JSON lines enter and leave it
// through cmd/segcat only) delivers its samples in order, as rows or as
// column batches, to the ingest (pipeline.go: the Overview's sessions
// lane on the delivering goroutine, its routes lane on one goroutine
// after it, aggregation shards on their own after that). The exported
// entry points — Run, RunCtx, FromSegments, RunDeaggregation — each
// pick a source and call run.
package study

import (
	"cmp"
	"context"
	"time"

	"repro/internal/agg"
	"repro/internal/analysis"
	"repro/internal/collector"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/segstore"
	"repro/internal/trace"
	"repro/internal/world"
)

// Thresholds used throughout the paper's tables.
var (
	// Table1DegMinRTTMs are the degradation thresholds (ms).
	Table1DegMinRTTMs = []float64{5, 10, 20, 50}
	// Table1DegHD are the HDratio degradation thresholds.
	Table1DegHD = []float64{0.05, 0.1, 0.2, 0.5}
	// Table1OppMinRTTMs are the opportunity thresholds (ms).
	Table1OppMinRTTMs = []float64{5, 10}
	// Table1OppHD is the HDratio opportunity threshold.
	Table1OppHD = []float64{0.05}
)

// Results bundles every analysis output for one dataset. The Results of
// a Segments study alias that study's state (see Segments); every other
// run's are its own.
type Results struct {
	Cfg       world.Config
	Collector collector.Stats
	Overview  *analysis.Overview
	Store     *agg.Store

	DegMinRTT analysis.DegradationResult
	DegHD     analysis.DegradationResult
	OppMinRTT analysis.OpportunityResult
	OppHD     analysis.OpportunityResult

	Table1DegMinRTT analysis.ClassTable
	Table1DegHD     analysis.ClassTable
	Table1OppMinRTT analysis.ClassTable
	Table1OppHD     analysis.ClassTable

	Table2MinRTT analysis.RelationshipTable
	Table2HD     analysis.RelationshipTable

	// Fig10 is the §6.3 relationship comparison on MinRTTP50. Results
	// assembled by hand may leave it zero: WriteReport computes it then.
	Fig10 analysis.RelSeries

	// Coverage is the graceful-degradation ledger of a chaos run (nil
	// when no fault plan was active): what was lost, quarantined, and
	// retried. Rendered as its own report section so degraded results
	// are labeled, never silent.
	Coverage *faults.Coverage

	// Elapsed is wall-clock generation+analysis time.
	Elapsed time.Duration
}

// inferredCfg reconstructs a world.Config from an aggregated store —
// the shape a segment replay reports, its dataset arriving without one.
// Days counts from the first covered window, not window zero:
// TotalWindows is an absolute high-water mark, so a -from filter that
// prunes the leading day would otherwise inflate the day count the
// temporal classifier keys on.
func inferredCfg(store *agg.Store) world.Config {
	covered := store.TotalWindows - store.FirstWindow()
	days := max(1, (covered+world.WindowsPerDay-1)/world.WindowsPerDay)
	return world.Config{Groups: store.Len(), Days: days}
}

// Options configures a study run.
type Options struct {
	// Workers is the pipeline parallelism: generation (or dataset
	// decoding) workers and aggregation shards. 0 means
	// pipeline.DefaultWorkers (GOMAXPROCS); 1 is one worker and one
	// shard, still beside the Overview's two lanes (one on the
	// delivering goroutine, one on its own). The report is
	// byte-identical at every count.
	Workers int
	// Reg receives pipeline metrics (may be nil).
	Reg *obs.Registry
	// Plan, when non-nil, injects deterministic faults across the
	// pipeline (sink failures, batch corruption, PoP outages, shard
	// delays) and makes Results carry a degradation ledger. The report
	// stays byte-identical at any worker count for a fixed (seed, plan).
	Plan *faults.Plan
	// FailFast makes the first non-recoverable fault poison the run
	// instead of quarantining the affected group and continuing.
	FailFast bool
	// Filter, when non-nil, restricts dataset replay (FromSegments) to
	// matching rows: whole segments are pruned against the manifest
	// before any I/O, the row predicate handles the rest. Ignored by
	// generation runs.
	Filter *segstore.Filter
	// Trace, when non-nil, records the run's deterministic flight
	// trace: generation spans, batch fates, sink faults and retries,
	// quarantines, seals, and the coverage ledger summary — the same file
	// at every worker count. The caller flushes it with Trace.WriteFile
	// after the run.
	Trace *trace.Recorder
	// RowOracle forces the segment path (FromSegments) to materialize
	// sample.Sample rows and aggregate row-at-a-time instead of feeding
	// column batches — the oracle the columnar hot path is verified
	// against: reports must be byte-identical either way. Slower;
	// exists for verification, not production use.
	RowOracle bool
}

// Run generates the dataset for cfg and runs every analysis: RunCtx at
// one worker with nothing attached.
func Run(cfg world.Config) *Results {
	res, err := RunCtx(context.Background(), cfg, Options{Workers: 1})
	if err != nil {
		// No plan, no cancellation, in-memory sinks: nothing can fail.
		panic("study.Run: " + err.Error())
	}
	return res
}

// RunCtx generates the dataset for cfg and runs every analysis on it
// (§3.3's structure: per-group sample streams hash-partitioned into
// shard-local aggregations, merged into one store). The rendered report
// is byte-identical at every worker count: per-group sample order is
// preserved end to end, shard stores partition the group-key space so
// their merge is exact, and the global Overview is the merge of per-group
// folds (analysis.Overview), each fed in its group's order.
func RunCtx(ctx context.Context, cfg world.Config, opt Options) (*Results, error) {
	res, _, err := run(ctx, &worldSource{w: world.New(cfg)}, opt, nil, nil)
	return res, err
}

// RunDeaggregation generates one dataset and aggregates it at both the
// paper's granularity (BGP prefix) and subnet granularity, returning
// the §3.3 tradeoff measurement alongside the standard results. Like Run
// it runs at one worker with nothing attached.
func RunDeaggregation(cfg world.Config) (*Results, analysis.DeaggregationResult) {
	fine := agg.NewStore()
	res, _, err := run(context.Background(), &worldSource{w: world.New(cfg), tap: analysis.DeaggregateSink(fine)}, Options{Workers: 1}, nil, nil)
	if err != nil {
		panic("study.RunDeaggregation: " + err.Error()) // as in Run: nothing can fail
	}
	return res, analysis.CompareDeaggregation(res.Store, fine)
}

// FromSegments runs every analysis over a segment dataset directory (as
// written by edgesim, by a fleet of edgesim PoPs into edgemerged, by
// edgestudyd or by a segcat import): a Segments study opened on it and
// advanced once. The
// dataset's shape — window count, and therefore the day count the
// temporal classifier needs — is inferred from the samples. The
// manifest is pruned against opt.Filter before any segment byte is
// read; surviving segments decode on opt.Workers goroutines and are
// delivered in manifest order — so the rendered report is byte-identical
// at every worker count.
//
// By default the path is row-free end to end: decoded column batches
// flow from the scanner through the collector into the store's batch
// fold without ever materializing sample.Sample structs — under a fault
// plan too: the routes lane decides each sample's sink fate by index
// into the batch. opt.RowOracle re-enables the row currency; either way
// the report bytes are identical — that equivalence is this path's
// standing correctness check.
func FromSegments(ctx context.Context, dir string, opt Options) (*Results, error) {
	res, _, err := OpenSegments(dir, opt).Advance(ctx)
	return res, err
}

// run is the study loop, once: src delivers its samples to an ingest on
// one goroutine while the ingest's routes lane and its shards work on one
// goroutine each, and the merged store is analysed while the overview
// seals. The ingest is returned when it
// keeps (one worker, neither a fault plan nor a trace): passed back as
// in, it takes the next source's samples on top of what it holds, and
// the Results passed back as prev are what the analyses of the grown
// store extend (a Segments study's extension; everyone else passes nil
// twice, and a prev that was not analysed over in's store extends
// nothing — analysis.Series keeps what it keeps by group pointer). Any
// other ingest is spent once reduced, so run returns nil for it.
func run(ctx context.Context, src source, opt Options, in *ingest, prev *Results) (*Results, *ingest, error) {
	start := startTimer()
	if opt.Workers == 0 {
		opt.Workers = pipeline.DefaultWorkers()
	}
	opt.Workers = max(1, opt.Workers)
	inj := faults.NewInjector(opt.Plan, src.seed())
	inj.Instrument(opt.Reg)
	e := &env{Options: opt, inj: inj, guard: faults.NewGuard(inj, opt.FailFast)}
	if in == nil {
		in = newIngest(opt.Workers, opt.Reg, inj, e.guard, opt.Trace)
	}
	e.buf = in.buf
	g := pipeline.NewGroup(ctx)
	in.start(g)
	g.Go(func(ctx context.Context) error {
		defer in.lane.Close() // the lane closes the shards' streams once it has routed the rest
		return src.deliver(ctx, e, in)
	})
	if err := g.Wait(); err != nil {
		return nil, nil, err
	}
	cov := e.guard.Coverage()
	store, stats, overview := in.finish(cov)
	// The overview seals beside the analyses, which read only the store.
	sealed := make(chan struct{})
	go func() {
		defer close(sealed)
		overview.Seal()
	}()
	res := &Results{Cfg: src.config(store), Collector: stats, Overview: overview, Store: store, Coverage: cov}
	res.analyse(ctx, opt.Reg, opt.Workers, prev)
	<-sealed
	res.Elapsed = elapsedSince(start)
	if !in.keeps() {
		in = nil
	}
	return res, in, nil
}

// analyse runs the §5/§6 analyses over the aggregated store, timing
// each one on reg (which may be nil): in order at one worker, each wave
// fanned out otherwise. The comparison series extend prev's — windows
// prev's store had closed are not compared again — and from nothing is
// the extension of a Results that holds none. A shared store is sealed
// first: digest reads fold lazily buffered points, so sealing is what
// makes it safe for concurrent readers.
func (r *Results) analyse(ctx context.Context, reg *obs.Registry, workers int, prev *Results) {
	if workers > 1 {
		r.Store.Seal(workers)
	}
	if prev == nil {
		prev = &Results{
			DegHD: analysis.DegradationResult{Series: analysis.Series{Metric: analysis.MetricHDratio}},
			OppHD: analysis.OpportunityResult{Series: analysis.Series{Metric: analysis.MetricHDratio}},
		}
	}
	params := analysis.DefaultClassifyParams(r.Cfg.Days)
	// Use the dataset's true window span (matters for datasets loaded
	// from disk, whose length is inferred rather than configured).
	windows := cmp.Or(r.Store.TotalWindows, r.Cfg.Windows())
	type step struct {
		name string
		f    func()
		// compared is where f leaves how many points it compared; nil for
		// the steps that are arithmetic over points.
		compared *int
	}
	// Classification needs all four results of the first wave; Table 2
	// only the opportunity pair.
	waves := [][]step{{
		{"degradation_minrtt", func() { r.DegMinRTT = prev.DegMinRTT.Extend(r.Store) }, &r.DegMinRTT.Compared},
		{"degradation_hdratio", func() { r.DegHD = prev.DegHD.Extend(r.Store) }, &r.DegHD.Compared},
		{"opportunity_minrtt", func() { r.OppMinRTT = prev.OppMinRTT.Extend(r.Store) }, &r.OppMinRTT.Compared},
		{"opportunity_hdratio", func() { r.OppHD = prev.OppHD.Extend(r.Store) }, &r.OppHD.Compared},
		{"figure10_minrtt", func() { r.Fig10 = prev.Fig10.Extend(r.Store) }, &r.Fig10.Compared},
	}, {
		{"classify", func() {
			r.Table1DegMinRTT = r.DegMinRTT.Classify(windows, params, Table1DegMinRTTMs)
			r.Table1DegHD = r.DegHD.Classify(windows, params, Table1DegHD)
			// Table 1 writes the MinRTT opportunity thresholds as −5/−10 ms (the
			// alternate is lower); our diffs are oriented positive-is-better, so
			// the thresholds are passed as positive magnitudes.
			r.Table1OppMinRTT = r.OppMinRTT.Classify(windows, params, Table1OppMinRTTMs)
			r.Table1OppHD = r.OppHD.Classify(windows, params, Table1OppHD)
		}, nil},
		{"relationships", func() {
			r.Table2MinRTT = r.OppMinRTT.Relationships(5)
			r.Table2HD = r.OppHD.Relationships(0.05)
		}, nil},
	}}
	for _, wave := range waves {
		g := pipeline.NewGroup(ctx)
		for _, st := range wave {
			timed := func(context.Context) error {
				reg.Span(obs.L("analysis_seconds", "analysis", st.name), "analyse").Time(st.f)
				if st.compared != nil {
					reg.Counter(obs.L("analysis_points_compared_total", "analysis", st.name)).Add(int64(*st.compared))
				}
				return nil // the analyses cannot fail
			}
			if workers > 1 {
				g.Go(timed)
			} else {
				_ = timed(ctx)
			}
		}
		_ = g.Wait()
	}
}
