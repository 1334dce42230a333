// Command edgereport runs the full measurement study on a synthetic
// world and prints every reproduced table and figure: the §2.3 traffic
// characterisation (Figures 1–3), the §4 global performance snapshot
// (Figures 6–7) with the naive-goodput ablation, §5 degradation
// (Figure 8, Table 1), and §6 routing opportunity (Figure 9, Tables 1–2,
// Figure 10).
//
// Usage:
//
//	edgereport [-seed N] [-groups N] [-days N] [-spw N] [-in dataset] [-deagg] [-cdf]
//	           [-from D] [-to D] [-country CC,CC] [-pop POP,POP]
//	           [-workers N] [-progress] [-metrics-addr host:port]
//
// -in takes a dataset: the columnar segment-store directory edgesim,
// an edgemerged/edgestudyd spool or a `segcat -in x.jsonl -o dir`
// import leaves behind. -from/-to/-country/-pop restrict the analysis
// to a slice of it — the filter is pushed down to the manifest, so
// whole segments outside the range are never read (the
// segstore_bytes_pruned gauge on -metrics-addr shows how much I/O the
// filter saved).
//
// The defaults (120 groups × 5 days) run in a minute or two on a laptop.
// -workers (default GOMAXPROCS) runs the sharded concurrent pipeline —
// generation or dataset decoding fans out to a worker pool feeding
// hash-partitioned aggregation shards, and the analyses run in parallel
// once the shards merge; the report is byte-identical to -workers 1 on
// the same seed or dataset. Generation hands on each group's days in
// day order, groups as they finish, and never more than 2 × -workers + 1
// days wait on the fold; a replay hands on its segments in order, never
// more than 2 × -workers + 1 ahead of the one being folded. -cdf additionally dumps the raw CDF series
// behind Figures 8 and 9 for plotting. -progress reports pipeline
// throughput and per-stage timings to stderr while the study runs;
// -metrics-addr serves /metrics, /debug/vars and /debug/pprof — the
// pipeline_queue_depth{stage=...} gauges expose live shard-queue
// occupancy — for introspection of long runs.
//
// -fault-plan injects deterministic failures (see internal/faults) into
// the study pipeline: collector-sink faults retried with backoff,
// poisoned group batches quarantined instead of failing the run, PoP
// outages suppressed at the source. The degraded report carries a
// coverage section accounting every lost sample, and is byte-identical
// across -workers counts for the same seed and plan. -fail-fast aborts
// on the first unrecoverable fault instead. SIGINT/SIGTERM cancel the
// study cleanly (no report is written); a second signal forces an
// immediate exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/analysis"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/segstore"
	"repro/internal/sigctl"
	"repro/internal/study"
	"repro/internal/trace"
	"repro/internal/world"
)

// exitIfInterrupted maps a cancelled study to the conventional SIGINT
// exit: no partial report is ever written (the analyses need the whole
// dataset), so the operator gets a notice instead of half a table.
func exitIfInterrupted(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "edgereport: interrupted — study abandoned, no report written")
		os.Exit(130)
	}
}

func main() {
	var (
		seed        = flag.Uint64("seed", 42, "world seed (same seed, same dataset)")
		groups      = flag.Int("groups", 120, "number of user groups")
		days        = flag.Int("days", 5, "dataset length in days (paper: 10)")
		spw         = flag.Float64("spw", 110, "mean sampled sessions per group per 15-minute window")
		in          = flag.String("in", "", "analyse an existing dataset (a segment-store directory from edgesim) instead of generating one")
		from        = flag.Duration("from", 0, "with -in: only analyse sessions starting at or after this dataset offset (e.g. 24h)")
		to          = flag.Duration("to", 0, "with -in: only analyse sessions starting before this dataset offset (0 = end)")
		country     = flag.String("country", "", "with -in: only analyse these countries (comma-separated ISO codes)")
		pop         = flag.String("pop", "", "with -in: only analyse these PoPs (comma-separated)")
		cdf         = flag.Bool("cdf", false, "also dump raw CDF series for Figures 8 and 9")
		deagg       = flag.Bool("deagg", false, "also run the §3.3 prefix-deaggregation experiment")
		workers     = flag.Int("workers", pipeline.DefaultWorkers(), "pipeline workers and aggregation shards (any count renders the same report)")
		progress    = flag.Bool("progress", false, "report study progress to stderr every 2s")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		faultPlan   = flag.String("fault-plan", "", "deterministic fault-injection plan (key=value;... — see internal/faults; '' or 'none' disables)")
		failFast    = flag.Bool("fail-fast", false, "abort on the first unrecoverable injected fault instead of degrading")
		tracePath   = flag.String("trace", "", "record a deterministic flight trace of the study to this file; inspect with edgetrace")
		rowOracle   = flag.Bool("row-oracle", false, "with -in: aggregate row-at-a-time instead of the columnar batch path (verification oracle; the report must be byte-identical)")
	)
	flag.Parse()

	plan, err := faults.ParsePlan(*faultPlan)
	if err != nil {
		log.Fatalf("edgereport: -fault-plan: %v", err)
	}
	if plan != nil && *deagg {
		log.Fatal("edgereport: -fault-plan is not supported with -deagg (the deaggregation experiment is a clean-world comparison)")
	}
	if *tracePath != "" && *deagg {
		log.Fatal("edgereport: -trace is not supported with -deagg (the deaggregation experiment bypasses the traced pipeline)")
	}
	filter, err := segstore.ParseFilter(*from, *to, *country, *pop)
	if err != nil {
		log.Fatalf("edgereport: %v", err)
	}
	if filter != nil && *in == "" {
		log.Fatal("edgereport: -from/-to/-country/-pop filter an existing dataset; pass one with -in")
	}

	ctx, stop := sigctl.Context(context.Background(),
		"edgereport: second interrupt — forcing exit; no report written")
	defer stop()

	reg := obs.NewRegistry()
	if *metricsAddr != "" {
		go func() {
			if err := reg.ListenAndServe(*metricsAddr); err != nil {
				log.Printf("edgereport: metrics server: %v", err)
			}
		}()
	}
	stopProgress := func() {}
	if *progress {
		stopProgress = obs.StartProgress(reg, os.Stderr, 2*time.Second)
	}

	var rec *trace.Recorder
	if *tracePath != "" {
		rec = trace.New(*seed)
	}
	flushTrace := func() {
		if rec == nil {
			return
		}
		if err := rec.WriteFile(*tracePath); err != nil {
			log.Printf("edgereport: writing trace: %v", err)
			return
		}
		note := ""
		if n := rec.Dropped(); n > 0 {
			note = fmt.Sprintf(" (ring overwrote %d events; the trace is a suffix)", n)
		}
		fmt.Fprintf(os.Stderr, "edgereport: trace written to %s%s\n", *tracePath, note)
	}

	opt := study.Options{Workers: *workers, Reg: reg, Plan: plan, FailFast: *failFast, Filter: filter, Trace: rec, RowOracle: *rowOracle}
	cfg := world.Config{Seed: *seed, Groups: *groups, Days: *days, SessionsPerGroupWindow: *spw}
	var res *study.Results
	var deag *analysis.DeaggregationResult
	switch {
	case *deagg && *in == "":
		// The deaggregation experiment re-buckets the same world two ways;
		// it runs at one worker regardless of -workers.
		r, d := study.RunDeaggregation(cfg)
		res, deag = r, &d
	case *in == "":
		res, err = study.RunCtx(ctx, cfg, opt)
	default:
		res, err = study.FromSegments(ctx, *in, opt)
	}
	if err != nil {
		exitIfInterrupted(err)
		if *in != "" {
			log.Fatalf("edgereport: reading %s: %v", *in, err)
		}
		log.Fatalf("edgereport: %v", err)
	}
	stopProgress()
	flushTrace()
	res.WriteReport(os.Stdout)
	if deag != nil {
		fmt.Printf("== §3.3 deaggregation experiment ==\ngroups %d→%d, coverage loss %.0f%%, variability reduction %.0f%% (paper: large loss, minimal reduction)\n\n",
			deag.BaseGroups, deag.FineGroups, deag.CoverageLoss()*100, deag.VariabilityReduction()*100)
	}

	if *cdf {
		fmt.Println("== Raw CDF series ==")
		deg, degLo, degHi := res.DegMinRTT.CDF()
		report.CDF(os.Stdout, "fig8-minrtt-degradation-ms", deg, 41)
		report.CDF(os.Stdout, "fig8-minrtt-degradation-ci-lo", degLo, 41)
		report.CDF(os.Stdout, "fig8-minrtt-degradation-ci-hi", degHi, 41)
		opp, oppLo, oppHi := res.OppMinRTT.CDF()
		report.CDF(os.Stdout, "fig9-minrtt-opportunity-ms", opp, 41)
		report.CDF(os.Stdout, "fig9-minrtt-opportunity-ci-lo", oppLo, 41)
		report.CDF(os.Stdout, "fig9-minrtt-opportunity-ci-hi", oppHi, 41)
	}
}
