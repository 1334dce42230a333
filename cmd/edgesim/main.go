// Command edgesim generates the synthetic measurement dataset — the
// stand-in for the paper's 10-day production capture (§2.2.4) — and
// writes it as a columnar segment store (internal/segstore): a
// directory of immutable group × 24 h segments behind an atomically
// committed manifest, holding every sampled HTTP session that passes
// the collector's hosting-provider filter. Run as one PoP of a fleet,
// it writes that PoP's share and ships it to the central merger.
//
// Usage:
//
//	edgesim [-seed N] [-groups N] [-days N] [-spw N] -o dataset-dir
//	        [-workers N] [-fault-plan SPEC] [-fail-fast] [-trace file]
//	        [-progress] [-metrics-addr host:port]
//	        [-pop I -pops N] [-merger ADDR [-ack-batch N] [-ship-fault-plan SPEC]]
//
// A 10-day, 300-group dataset is a few million sessions; scale
// -groups/-days/-spw to taste. At every -workers count (default
// GOMAXPROCS) -workers goroutines simulate groups day by day and one
// writer takes the days as they come: it filters and encodes each day
// and, at a group's last day, appends the group's segments and commits
// the manifest. The manifest orders segments by ID, so the dataset
// bytes do not depend on the worker count or on the order groups
// finish in, and even -workers 1 simulates ahead while the writer
// writes. At most 2 × -workers + 1 simulated days wait on the writer.
// -progress reports sessions per second and per-stage wall time to
// stderr while the run grinds; -metrics-addr additionally serves
// /metrics (Prometheus text), /debug/vars, and /debug/pprof —
// including pipeline_queue_depth{stage="generate"} for the days
// simulated and waiting on the writer, and
// world_stage_seconds{stage="emit"} for the writer's time, filter,
// encode and write together.
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
//
// -pop I -pops N restricts the run to PoP I's share of the world's
// groups (seggen.OwnedGroups); -merger ADDR then ships every committed
// segment and tombstone to the merge tier (cmd/edgemerged, or
// edgestudyd -listen) over a length-prefixed, CRC-framed stream. ADDR
// is a unix socket path when it holds a path separator, else a tcp
// host:port. N processes with -pop 0..N-1 and otherwise the same world
// flags ship exactly the segments one unrestricted run writes, and the
// merger's spool ends byte-identical to that dataset — under any
// -ship-fault-plan, at any worker count, across kill-and-restart of a
// PoP at any instant: generation resumes from the manifest, shipping
// from the committed-vs-acked watermark (ACKS.json, group-committed
// every -ack-batch acks), and the merger deduplicates replays by
// (origin, segment ID, content hash). -ship-fault-plan is wire-only
// chaos — drops, delays, truncations, duplicate deliveries — and never
// enters the dataset origin, because it must never change a dataset
// byte. Without -merger the run only generates.
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
	"repro/internal/ship"
	"repro/internal/sigctl"
	"repro/internal/trace"
	"repro/internal/world"
)

func main() {
	var (
		seed        = flag.Uint64("seed", 1, "world seed")
		groups      = flag.Int("groups", 300, "number of user groups")
		days        = flag.Int("days", 10, "dataset length in days")
		spw         = flag.Float64("spw", 8, "mean sampled sessions per group per window")
		out         = flag.String("o", "", "dataset directory to write or resume (required)")
		workers     = flag.Int("workers", pipeline.DefaultWorkers(), "goroutines that simulate groups; at any count one writer filters, encodes and commits them as they finish, beside the simulation")
		progress    = flag.Bool("progress", false, "report generation progress to stderr every 2s")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		faultPlan   = flag.String("fault-plan", "", "deterministic fault-injection plan (key=value;... — see internal/faults; '' or 'none' disables)")
		failFast    = flag.Bool("fail-fast", false, "abort on the first unrecoverable injected fault instead of degrading")
		tracePath   = flag.String("trace", "", "record a deterministic flight trace of the run to this file; inspect with edgetrace")
		pop         = flag.Int("pop", 0, "this PoP's index in the fleet (0-based)")
		pops        = flag.Int("pops", 1, "fleet size")
		merger      = flag.String("merger", "", "ship the committed dataset to this merger (host:port, or a unix socket path); without it the run only generates")
		ackBatch    = flag.Int("ack-batch", 1, "group-commit the durable ack log every N acked slots (1 = commit per ack); a crash mid-batch only re-ships, never re-acks")
		shipPlan    = flag.String("ship-fault-plan", "", "deterministic wire fault plan for the shipping phase (ship-drop/ship-dup/ship-trunc/ship-delay; never changes dataset bytes)")
	)
	flag.Parse()

	plan, err := faults.ParsePlan(*faultPlan)
	if err != nil {
		log.Fatalf("edgesim: -fault-plan: %v", err)
	}
	wirePlan, err := faults.ParsePlan(*shipPlan)
	if err != nil {
		log.Fatalf("edgesim: -ship-fault-plan: %v", err)
	}
	if *out == "" || *out == "-" {
		log.Fatal("edgesim: the dataset is a segment-store directory; name one with -o (segcat -in dir -o - exports JSON lines)")
	}
	if *pops < 1 || *pop < 0 || *pop >= *pops {
		log.Fatalf("edgesim: -pop %d -pops %d out of range", *pop, *pops)
	}
	shipping := *merger != ""
	if !shipping {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "ack-batch" || f.Name == "ship-fault-plan" {
				log.Fatalf("edgesim: -%s shapes the shipping phase; it needs -merger", f.Name)
			}
		})
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
	// The wire injector shares the registry (its faults_injected_total
	// surface is "ship") but draws from the ship plan's own seed mix.
	wireInj := faults.NewInjector(wirePlan, *seed)
	wireInj.Instrument(reg)

	var rec *trace.Recorder
	if *tracePath != "" {
		rec = trace.New(*seed)
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

	// The origin is the one for these world flags whatever the PoP: a
	// fleet's spool must be byte-identical to the unrestricted dataset,
	// and the origin is part of its manifest bytes.
	owned := seggen.OwnedGroups(w, *pop, *pops)
	res, runErr := seggen.Run(ctx, seggen.Options{
		World: w, Dir: *out, Reg: reg, Workers: *workers, Injector: inj, FailFast: *failFast, Rec: rec,
		Origin: seggen.Origin(cfg, inj), Groups: owned,
	})
	// A shipping run flushes its trace after the shipment, whose events
	// it holds too.
	if !shipping || runErr != nil {
		stopProgress()
		flushTrace()
	}
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		log.Fatalf("edgesim: %v", runErr)
	}
	if runErr != nil { // interrupted; everything committed is durable
		fmt.Fprintf(os.Stderr, "edgesim: interrupted — %d samples committed this run; the manifest is intact, rerun with the same flags to resume\n", res.Written)
		os.Exit(130)
	}
	msg := fmt.Sprintf("edgesim: committed %d samples (%d filtered as hosting/VPN) across %d groups × %d windows",
		res.Written, res.Stats.FilteredHosting, len(owned), w.Cfg.Windows())
	if res.Resumed > 0 {
		msg += fmt.Sprintf("; %d groups already committed by a previous run", res.Resumed)
	}
	fmt.Fprintln(os.Stderr, msg)
	if res.Coverage != nil {
		fmt.Fprintln(os.Stderr, "edgesim: "+res.Coverage.Summary())
	}
	if !shipping {
		return
	}

	st, shipErr := ship.Ship(ctx, ship.ShipperOptions{
		Dir: *out, Addr: *merger, PoP: *pop, Pops: *pops, AckBatch: *ackBatch,
		Injector: wireInj, Reg: reg, Rec: rec,
	})
	stopProgress()
	flushTrace()
	if shipErr != nil && !errors.Is(shipErr, context.Canceled) {
		log.Fatalf("edgesim: ship: %v (%d slots acked and durable; rerun to resume)", shipErr, st.Shipped+st.AlreadyAcked)
	}
	if shipErr != nil {
		fmt.Fprintf(os.Stderr, "edgesim: interrupted — %d slots acked (%d already acked before this run); rerun with the same flags to resume shipping\n",
			st.Shipped, st.AlreadyAcked)
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "edgesim: shipped %d slots (%d segments, %d tombstones, %d already acked) in %d bytes; %d retries, %d reconnects, %d duplicates injected\n",
		st.Shipped, st.Segments, st.Tombs, st.AlreadyAcked, st.Bytes, st.Retries, st.Reconnects, st.DupsInjected)
}
