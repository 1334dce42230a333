// Command edgesim generates the synthetic measurement dataset — the
// stand-in for the paper's 10-day production capture (§2.2.4) — and
// writes it as a columnar segment store (internal/segstore): a
// directory of immutable group × 24 h segments behind an atomically
// committed manifest, holding every sampled HTTP session that passes
// the collector's hosting-provider filter.
//
// Usage:
//
//	edgesim [-seed N] [-groups N] [-days N] [-spw N] -o dataset-dir
//	        [-workers N] [-progress] [-metrics-addr host:port]
//
// A 10-day, 300-group dataset is a few million sessions; scale
// -groups/-days/-spw to taste. The write is three stages at every
// -workers count (default GOMAXPROCS): -workers goroutines simulate
// groups, as many filter and encode them, and a single ordered tail
// appends segments and commits the manifest in deterministic group
// order, so the dataset bytes do not depend on the worker count and
// even -workers 1 simulates one group while it encodes the one before.
// -progress reports sessions per second and per-stage wall time to
// stderr while the run grinds; -metrics-addr additionally serves
// /metrics (Prometheus text), /debug/vars, and /debug/pprof — including
// pipeline_queue_depth{stage="encode"} and {stage="write"} for the
// generate→encode and encode→write queues.
// cmd/edgereport and cmd/edgestat read the directory; cmd/segcat
// exports it as JSON lines for external tooling.
//
// SIGINT/SIGTERM cancel the pipeline cleanly: in-flight groups are
// abandoned and the manifest holds every group committed so far — a
// readable dataset — and rerunning with the same flags resumes, the
// finished directory byte-identical to an uninterrupted run's. A second
// SIGINT/SIGTERM skips the orderly drain and exits immediately; the
// manifest still holds the last committed state.
//
// -fault-plan injects deterministic failures (see internal/faults) at
// the generator, batch, and writer surfaces: PoP outages suppress
// windows at the source, batch faults truncate or drop whole group
// batches, and write faults fail the ordered write stage — transient
// streaks are absorbed by retry with backoff, permanent ones tombstone
// the group's segments in the manifest (or abort the run under
// -fail-fast). The same seed and plan yield a byte-identical degraded
// dataset at any -workers count; the losses are accounted on stderr
// when the run ends.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/seggen"
	"repro/internal/sigctl"
	"repro/internal/trace"
	"repro/internal/world"
)

// traceBufCap is the flight-recorder ring bound for CLI runs: large
// enough that a full chaos dataset keeps every event (drops void the
// byte-identity guarantee and edgetrace warns about them), small enough
// to bound memory on a runaway run. Rings grow lazily, so quiet runs
// never pay it.
const traceBufCap = 1 << 20

func main() {
	var (
		seed        = flag.Uint64("seed", 1, "world seed")
		groups      = flag.Int("groups", 300, "number of user groups")
		days        = flag.Int("days", 10, "dataset length in days")
		spw         = flag.Float64("spw", 8, "mean sampled sessions per group per window")
		out         = flag.String("o", "", "dataset directory to write or resume (required)")
		workers     = flag.Int("workers", pipeline.DefaultWorkers(), "goroutines that simulate groups, and as many that encode them; at any count simulate, encode and commit overlap")
		progress    = flag.Bool("progress", false, "report generation progress to stderr every 2s")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		faultPlan   = flag.String("fault-plan", "", "deterministic fault-injection plan (key=value;... — see internal/faults; '' or 'none' disables)")
		failFast    = flag.Bool("fail-fast", false, "abort on the first unrecoverable injected fault instead of degrading")
		tracePath   = flag.String("trace", "", "record a deterministic flight trace of the run to this file; inspect with edgetrace")
	)
	flag.Parse()

	plan, err := faults.ParsePlan(*faultPlan)
	if err != nil {
		log.Fatalf("edgesim: -fault-plan: %v", err)
	}
	if *out == "" || *out == "-" {
		log.Fatal("edgesim: the dataset is a segment-store directory; name one with -o (segcat -in dir -o - exports JSON lines)")
	}

	ctx, stop := sigctl.Context(context.Background(),
		"edgesim: second interrupt — forcing exit; the manifest holds the last committed state")
	defer stop()

	reg := obs.NewRegistry()
	if *metricsAddr != "" {
		go func() {
			if err := reg.ListenAndServe(*metricsAddr); err != nil {
				log.Printf("edgesim: metrics server: %v", err)
			}
		}()
	}
	stopProgress := func() {}
	if *progress {
		stopProgress = obs.StartProgress(reg, os.Stderr, 2*time.Second)
	}

	cfg := world.Config{Seed: *seed, Groups: *groups, Days: *days, SessionsPerGroupWindow: *spw}
	w := world.New(cfg)
	w.Instrument(reg)

	inj := faults.NewInjector(plan, *seed)
	inj.Instrument(reg)
	if inj != nil {
		w.PoPDown = inj.Outage
	}

	var rec *trace.Recorder
	if *tracePath != "" {
		rec = trace.New(*seed)
		rec.SetBufCap(traceBufCap)
		w.Rec = rec
	}
	flushTrace := func() {
		if rec == nil {
			return
		}
		if err := rec.WriteFile(*tracePath); err != nil {
			log.Printf("edgesim: writing trace: %v", err)
			return
		}
		note := ""
		if n := rec.Dropped(); n > 0 {
			note = fmt.Sprintf(" (ring overwrote %d events; the trace is a suffix)", n)
		}
		fmt.Fprintf(os.Stderr, "edgesim: trace written to %s%s\n", *tracePath, note)
	}

	res, runErr := seggen.Run(ctx, seggen.Options{
		World: w, Dir: *out, Reg: reg, Workers: *workers, Injector: inj, FailFast: *failFast, Rec: rec,
		Origin: seggen.Origin(cfg, inj),
	})
	stopProgress()
	flushTrace()
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		log.Fatalf("edgesim: %v", runErr)
	}
	if runErr != nil { // interrupted; everything committed is durable
		fmt.Fprintf(os.Stderr, "edgesim: interrupted — %d samples committed this run; the manifest is intact, rerun with the same flags to resume\n", res.Written)
		os.Exit(130)
	}
	msg := fmt.Sprintf("edgesim: committed %d samples (%d filtered as hosting/VPN) across %d groups × %d windows",
		res.Written, res.Stats.FilteredHosting, *groups, w.Cfg.Windows())
	if res.Resumed > 0 {
		msg += fmt.Sprintf("; %d groups already committed by a previous run", res.Resumed)
	}
	fmt.Fprintln(os.Stderr, msg)
	reportCoverage(res.Coverage)
}

// reportCoverage prints the degradation ledger of a chaos run (no-op
// without a fault plan): degraded results must be labeled, never silent.
func reportCoverage(cov *faults.Coverage) {
	if cov == nil {
		return
	}
	if cov.Degraded() {
		fmt.Fprintf(os.Stderr, "edgesim: DEGRADED under fault plan %q — lost %d samples (outage %d, truncated %d, dropped %d); %d group batches quarantined; %d retries spent, %d transient faults recovered\n",
			cov.Spec, cov.SamplesLost(), cov.SamplesLostOutage, cov.SamplesLostTruncated, cov.SamplesLostDropped,
			len(cov.Quarantined), cov.RetriesSpent, cov.TransientRecovered)
	} else {
		fmt.Fprintf(os.Stderr, "edgesim: fault plan %q injected no data loss (%d retries spent, %d transient faults recovered)\n",
			cov.Spec, cov.RetriesSpent, cov.TransientRecovered)
	}
}
