// Package study orchestrates the full measurement study: it runs the
// synthetic world through the collection pipeline, aggregates per
// §3.3, and executes every analysis in the paper's evaluation —
// producing the data behind Figures 1–3 and 6–10 and Tables 1–2.
// cmd/edgereport, the examples, and the benchmark harness all drive
// this package.
package study

import (
	"context"
	"errors"
	"io"
	"time"

	"repro/internal/agg"
	"repro/internal/analysis"
	"repro/internal/collector"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/world"
)

// ReadCounter wraps r so every byte read bumps the
// study_read_bytes_total counter on reg — with the samples counter this
// puts dataset read throughput (samples/s, MB/s) on the obs progress
// line. reg may be nil (no-op wrap).
func ReadCounter(r io.Reader, reg *obs.Registry) io.Reader {
	return &countingReader{r: r, c: reg.Counter("study_read_bytes_total")}
}

type countingReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(int64(n))
	return n, err
}

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

// Results bundles every analysis output for one dataset.
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

	// Coverage is the graceful-degradation ledger of a chaos run (nil
	// when no fault plan was active): what was lost, quarantined, and
	// retried. Rendered as its own report section so degraded results
	// are labeled, never silent.
	Coverage *faults.Coverage

	// Elapsed is wall-clock generation+analysis time.
	Elapsed time.Duration
}

// FromSamplesOpt runs every analysis over an existing dataset stream
// (for example one written by cmd/edgesim) instead of generating one —
// the sequential dataset-replay oracle. The dataset's shape — window
// count, and therefore the day count the temporal classifier needs — is
// inferred from the samples. opt.Filter drops rows before they reach
// the collector — the same row predicate the segment scanner pushes
// down, which is what keeps a filtered JSONL report byte-identical to
// the filtered segment report over the same dataset.
func FromSamplesOpt(r *sample.Reader, opt Options) (*Results, error) {
	start := startTimer()
	reg := opt.Reg
	store := agg.NewStore()
	store.Instrument(reg)
	overview := analysis.NewOverview()
	overview.Instrument(reg)
	col := collector.New(
		collector.StoreSink(store),
		collector.FuncSink(overview.Add),
	)
	col.Instrument(reg)
	read := reg.Span(obs.L("study_stage_seconds", "stage", "read"), "study")
	cSamples := reg.Counter("study_samples_read_total")
	sp := read.Start()
	for {
		s, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		cSamples.Inc()
		if !opt.Filter.Match(&s) {
			continue
		}
		col.Offer(s)
	}
	sp.End()
	res := &Results{
		Cfg:       inferredCfg(store),
		Collector: col.Stats(),
		Overview:  overview,
		Store:     store,
	}
	res.analyse(reg)
	res.Elapsed = elapsedSince(start)
	return res, nil
}

// inferredCfg reconstructs a world.Config from an aggregated store —
// the shape a replay run (JSONL or segments) reports when the dataset
// arrives without one. Days counts from the first covered window, not
// window zero: TotalWindows is an absolute high-water mark, so a -from
// filter that prunes the leading day would otherwise inflate the day
// count the temporal classifier keys on. Every replay path infers
// through this one helper, which is part of what keeps filtered reports
// byte-identical across dataset formats.
func inferredCfg(store *agg.Store) world.Config {
	covered := store.TotalWindows - store.FirstWindow()
	days := (covered + world.WindowsPerDay - 1) / world.WindowsPerDay
	if days < 1 {
		days = 1
	}
	cfg := world.Config{Groups: store.Len(), Days: days}
	// The inferred config must report the true window count.
	cfg.SessionsPerGroupWindow = float64(store.TotalSamples) / float64(max(1, store.Len()*store.TotalWindows))
	return cfg
}

// RunDeaggregation generates one dataset and aggregates it at both the
// paper's granularity (BGP prefix) and subnet granularity, returning
// the §3.3 tradeoff measurement alongside the standard results.
func RunDeaggregation(cfg world.Config) (*Results, analysis.DeaggregationResult) {
	start := startTimer()
	w := world.New(cfg)
	store := agg.NewStore()
	fine := agg.NewStore()
	overview := analysis.NewOverview()
	fineSink := analysis.DeaggregateSink(fine)
	col := collector.New(
		collector.StoreSink(store),
		collector.FuncSink(func(s sample.Sample) { overview.Add(s); fineSink(s) }),
	)
	w.Generate(col.Offer)
	res := &Results{
		Cfg:       w.Cfg,
		Collector: col.Stats(),
		Overview:  overview,
		Store:     store,
	}
	res.analyse(nil)
	res.Elapsed = elapsedSince(start)
	return res, analysis.CompareDeaggregation(store, fine)
}

// Run generates the dataset for cfg and runs every analysis on the
// calling goroutine: RunCtx's sequential oracle with nothing attached.
func Run(cfg world.Config) *Results {
	res, err := RunCtx(context.Background(), cfg, Options{Workers: 1})
	if err != nil {
		// No plan, no cancellation, in-memory sinks: nothing can fail.
		panic("study.Run: " + err.Error())
	}
	return res
}

// analyse runs the §5/§6 analyses over the aggregated store, timing
// each one on reg (which may be nil).
func (r *Results) analyse(reg *obs.Registry) {
	params := analysis.DefaultClassifyParams(r.Cfg.Days)
	// Use the dataset's true window span (matters for datasets loaded
	// from disk, whose length is inferred rather than configured).
	windows := r.Store.TotalWindows
	if windows == 0 {
		windows = r.Cfg.Windows()
	}

	timed := func(name string, f func()) {
		reg.Span(obs.L("analysis_seconds", "analysis", name), "analyse").Time(f)
	}
	timed("degradation_minrtt", func() { r.DegMinRTT = analysis.Degradation(r.Store, analysis.MetricMinRTT) })
	timed("degradation_hdratio", func() { r.DegHD = analysis.Degradation(r.Store, analysis.MetricHDratio) })
	timed("opportunity_minrtt", func() { r.OppMinRTT = analysis.Opportunity(r.Store, analysis.MetricMinRTT) })
	timed("opportunity_hdratio", func() { r.OppHD = analysis.Opportunity(r.Store, analysis.MetricHDratio) })

	timed("classify", func() {
		r.Table1DegMinRTT = r.DegMinRTT.Classify(windows, params, Table1DegMinRTTMs)
		r.Table1DegHD = r.DegHD.Classify(windows, params, Table1DegHD)
		// Table 1 writes the MinRTT opportunity thresholds as −5/−10 ms (the
		// alternate is lower); our diffs are oriented positive-is-better, so
		// the thresholds are passed as positive magnitudes.
		r.Table1OppMinRTT = r.OppMinRTT.Classify(windows, params, Table1OppMinRTTMs)
		r.Table1OppHD = r.OppHD.Classify(windows, params, Table1OppHD)
	})
	timed("relationships", func() {
		r.Table2MinRTT = r.OppMinRTT.Relationships(5)
		r.Table2HD = r.OppHD.Relationships(0.05)
	})
}
