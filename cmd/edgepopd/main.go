// Command edgepopd runs one PoP of the distributed collection fleet:
// it generates its share of the world into a local segment dataset
// (the same pure per-group pipeline edgesim uses, so the fleet's
// datasets reassemble byte-identically), then ships every committed
// segment to the central merger (cmd/edgemerged) over a
// length-prefixed, CRC-framed stream.
//
// Usage:
//
//	edgepopd -merger ADDR -pop I -pops N [-seed N] [-groups N] [-days N]
//	         [-spw N] [-o dir] [-workers N] [-fault-plan SPEC]
//	         [-ship-fault-plan SPEC] [-ack-batch N] [-fail-fast]
//	         [-progress] [-metrics-addr host:port] [-trace file]
//
// ADDR is a unix socket path when it holds a path separator, else a
// tcp host:port.
//
// The fleet invariant: N edgepopd processes with -pops N and -pop
// 0..N-1 (same seed/groups/days/spw/fault-plan) ship exactly the
// segments a single `edgesim` run would write, and the
// merger's spool directory ends byte-identical to it — under any
// -ship-fault-plan, at any worker count, including kill-and-restart of
// a PoP at any instant: generation resumes from the manifest,
// shipping resumes from the committed-vs-acked watermark (ACKS.json),
// and the merger deduplicates replayed shipments by (origin, segment
// ID, content hash).
//
// -fault-plan shapes the data (it is part of the dataset origin, like
// edgesim's); -ship-fault-plan is wire-only chaos — drops, delays,
// truncations, duplicate deliveries on the shipping connection — and
// never appears in the origin, because it must never change a dataset
// byte.
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

const traceBufCap = 1 << 20

func main() {
	var (
		seed        = flag.Uint64("seed", 1, "world seed (must match the fleet)")
		groups      = flag.Int("groups", 300, "number of user groups (must match the fleet)")
		days        = flag.Int("days", 10, "dataset length in days (must match the fleet)")
		spw         = flag.Float64("spw", 8, "mean sampled sessions per group per window (must match the fleet)")
		out         = flag.String("o", "", "local segment dataset directory (required)")
		pop         = flag.Int("pop", 0, "this PoP's index in the fleet (0-based)")
		pops        = flag.Int("pops", 1, "fleet size")
		merger      = flag.String("merger", "", "merger address (host:port, or a unix socket path; required unless -no-ship)")
		ackBatch    = flag.Int("ack-batch", 1, "group-commit the durable ack log every N acked slots (1 = commit per ack); a crash mid-batch only re-ships, never re-acks")
		noShip      = flag.Bool("no-ship", false, "generate only; skip the shipping phase")
		workers     = flag.Int("workers", pipeline.DefaultWorkers(), "goroutines that simulate groups, and as many that encode them; at any count simulate, encode and commit overlap")
		progress    = flag.Bool("progress", false, "report progress to stderr every 2s")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		faultPlan   = flag.String("fault-plan", "", "deterministic generation fault plan (shapes the dataset; part of its origin)")
		shipPlan    = flag.String("ship-fault-plan", "", "deterministic wire fault plan for the shipping phase (ship-drop/ship-dup/ship-trunc/ship-delay; never changes dataset bytes)")
		failFast    = flag.Bool("fail-fast", false, "abort on the first unrecoverable injected generation fault instead of degrading")
		tracePath   = flag.String("trace", "", "record a deterministic flight trace of the run to this file")
	)
	flag.Parse()

	if *out == "" {
		log.Fatal("edgepopd: -o is required (the PoP's local dataset directory)")
	}
	if *pops < 1 || *pop < 0 || *pop >= *pops {
		log.Fatalf("edgepopd: -pop %d -pops %d out of range", *pop, *pops)
	}
	if *merger == "" && !*noShip {
		log.Fatal("edgepopd: -merger is required (or pass -no-ship)")
	}
	plan, err := faults.ParsePlan(*faultPlan)
	if err != nil {
		log.Fatalf("edgepopd: -fault-plan: %v", err)
	}
	wirePlan, err := faults.ParsePlan(*shipPlan)
	if err != nil {
		log.Fatalf("edgepopd: -ship-fault-plan: %v", err)
	}

	ctx, stop := sigctl.Context(context.Background(),
		"edgepopd: second interrupt — forcing exit; manifest and ack log hold the last committed state")
	defer stop()

	reg := obs.NewRegistry()
	if *metricsAddr != "" {
		go func() {
			if err := reg.ListenAndServe(*metricsAddr); err != nil {
				log.Printf("edgepopd: metrics server: %v", err)
			}
		}()
	}
	stopProgress := func() {}
	if *progress {
		stopProgress = obs.StartProgress(reg, os.Stderr, 2*time.Second)
	}
	defer stopProgress()

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
		rec.SetBufCap(traceBufCap)
		w.Rec = rec
	}
	flushTrace := func() {
		if rec == nil {
			return
		}
		if err := rec.WriteFile(*tracePath); err != nil {
			log.Printf("edgepopd: writing trace: %v", err)
		}
	}

	// The origin is the canonical edgesim origin for the same flags: the
	// fleet's shipped segments must land in a spool whose manifest is
	// byte-identical to the single-process dataset's, and the origin is
	// part of those bytes. The PoP index deliberately stays out of it.
	origin := seggen.Origin(cfg, inj)

	owned := seggen.OwnedGroups(w, *pop, *pops)
	res, runErr := seggen.Run(ctx, seggen.Options{
		World: w, Dir: *out, Origin: origin, Reg: reg,
		Workers: *workers, Injector: inj, FailFast: *failFast, Rec: rec,
		Groups: owned,
	})
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		flushTrace()
		log.Fatalf("edgepopd: generate: %v", runErr)
	}
	if runErr != nil { // interrupted; everything committed is durable
		flushTrace()
		fmt.Fprintf(os.Stderr, "edgepopd: interrupted — %d samples committed this run; rerun with the same flags to resume generation and shipping\n", res.Written)
		os.Exit(130)
	}
	msg := fmt.Sprintf("edgepopd: pop %d/%d committed %d samples across %d of %d groups",
		*pop, *pops, res.Written, len(owned), *groups)
	if res.Resumed > 0 {
		msg += fmt.Sprintf("; %d groups already committed by a previous run", res.Resumed)
	}
	fmt.Fprintln(os.Stderr, msg)
	if cov := res.Coverage; cov != nil && cov.Degraded() {
		fmt.Fprintf(os.Stderr, "edgepopd: DEGRADED under fault plan %q — lost %d samples; losses are tombstoned in the manifest and ship as such\n",
			cov.Spec, cov.SamplesLost())
	}

	if *noShip {
		flushTrace()
		return
	}

	st, shipErr := ship.Ship(ctx, ship.ShipperOptions{
		Dir: *out, Addr: *merger,
		PoP: *pop, Pops: *pops, AckBatch: *ackBatch,
		Injector: wireInj, Reg: reg, Rec: rec,
	})
	flushTrace()
	if shipErr != nil && !errors.Is(shipErr, context.Canceled) {
		log.Fatalf("edgepopd: ship: %v (%d slots acked and durable; rerun to resume)", shipErr, st.Shipped+st.AlreadyAcked)
	}
	if shipErr != nil {
		fmt.Fprintf(os.Stderr, "edgepopd: interrupted — %d slots acked (%d already acked before this run); rerun with the same flags to resume shipping\n",
			st.Shipped, st.AlreadyAcked)
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "edgepopd: shipped %d slots (%d segments, %d tombstones, %d already acked) in %d bytes; %d retries, %d reconnects, %d duplicates injected\n",
		st.Shipped, st.Segments, st.Tombs, st.AlreadyAcked, st.Bytes, st.Retries, st.Reconnects, st.DupsInjected)
}
