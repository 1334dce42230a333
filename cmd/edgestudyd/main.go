// Command edgestudyd runs the always-on study service: it ingests a
// continuous sample stream, seals 15-minute windows on the logical
// clock as they close, appends sealed data to an at-rest segment
// spool, and serves reports and health over HTTP while ingesting.
//
// Usage (live mode — the daemon generates its own stream):
//
//	edgestudyd -o dir [-seed N] [-groups N] [-days N] [-spw N]
//	           [-workers N] [-fault-plan SPEC] [-fail-fast]
//	           [-http host:port] [-addr-file path] [-trace file]
//	           [-progress]
//
// Usage (wire mode — a fleet of `edgesim -pop I -pops N -merger ADDR`
// feeds the spool):
//
//	edgestudyd -o dir -listen ADDR [-expect-pops N]
//	           [-origin STR] [-http host:port] ...
//
// ADDR is a unix socket path when it holds a path separator, else a
// tcp host:port.
//
// The determinism invariant: a live-mode daemon with the same
// seed/groups/days/spw/fault-plan as an `edgesim` run
// drains into a byte-identical spool, so `edgereport` over the
// daemon's segments — and the daemon's own /report — reproduce the
// golden batch report exactly, at any -workers count. The studyd cells
// of cmd/edgeident pin this end to end.
//
// HTTP endpoints: /report (cached, stale-while-revalidate), /groups,
// /windows, /healthz, plus /metrics, /debug/vars and /debug/pprof.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/seggen"
	"repro/internal/ship"
	"repro/internal/sigctl"
	"repro/internal/studyd"
	"repro/internal/trace"
	"repro/internal/world"
)

// What the HTTP server allows a client that has not yet sent a request:
// five seconds to finish its headers, 64 KiB of them, and two minutes of
// silence on a kept-alive connection. Constants, not flags: nothing about
// a deployment changes them. There is no write timeout, because a /report
// that misses the cache legitimately waits for a cold fold of the spool.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// newServer wraps h in the daemon's HTTP server. A bare http.Server sets
// no limit at all: a client that opens a connection and never finishes
// its request line would hold a goroutine and a descriptor for the
// daemon's life.
func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

func main() {
	var (
		seed       = flag.Uint64("seed", 1, "world seed (live mode)")
		groups     = flag.Int("groups", 300, "number of user groups (live mode)")
		days       = flag.Int("days", 10, "dataset length in days (live mode)")
		spw        = flag.Float64("spw", 8, "mean sampled sessions per group per window (live mode)")
		out        = flag.String("o", "", "at-rest segment spool directory (required; resumed if it already holds a dataset)")
		workers    = flag.Int("workers", pipeline.DefaultWorkers(), "world generator goroutines, each simulating its share of the groups up to a day ahead of ingest (never changes the spool bytes)")
		httpAddr   = flag.String("http", "127.0.0.1:0", "HTTP service address (:0 picks a free port; see -addr-file)")
		addrFile   = flag.String("addr-file", "", "write the bound HTTP address to this file once listening")
		faultPlan  = flag.String("fault-plan", "", "deterministic ingest fault plan, the one edgesim takes (shapes the dataset; part of its origin)")
		failFast   = flag.Bool("fail-fast", false, "abort on the first unrecoverable injected fault instead of degrading")
		tracePath  = flag.String("trace", "", "record a deterministic flight trace of the run to this file")
		progress   = flag.Bool("progress", false, "report ingest progress to stderr every 2s")
		listen     = flag.String("listen", "", "wire mode: accept a fleet of edgesim -merger shippers on this address (host:port, or a unix socket path) instead of generating a live stream")
		expectPops = flag.Int("expect-pops", 1, "wire mode: drain once this many distinct PoPs complete their DONE handshake")
		origin     = flag.String("origin", "", "wire mode: pin the spool origin; refuse shippers that disagree (default: adopt the first shipper's)")
	)
	flag.Parse()

	if *out == "" {
		log.Fatal("edgestudyd: -o is required (the spool directory)")
	}
	plan, err := faults.ParsePlan(*faultPlan)
	if err != nil {
		log.Fatalf("edgestudyd: -fault-plan: %v", err)
	}

	ctx, stop := sigctl.Context(context.Background(),
		"edgestudyd: second interrupt — forcing exit; the spool manifest holds the last committed state")
	defer stop()

	reg := obs.NewRegistry()
	stopProgress := func() {}
	if *progress {
		stopProgress = obs.StartProgress(reg, os.Stderr, 2*time.Second)
	}
	defer stopProgress()

	var rec *trace.Recorder
	if *tracePath != "" {
		rec = trace.New(*seed)
	}
	flushTrace := func() {
		if rec == nil {
			return
		}
		if err := rec.WriteFile(*tracePath); err != nil {
			log.Printf("edgestudyd: writing trace: %v", err)
		}
	}

	opt := studyd.Options{Dir: *out, Reg: reg, Rec: rec, FailFast: *failFast}
	if *listen == "" {
		// Live mode: the daemon generates its own continuous stream. The
		// origin is the canonical edgesim origin for the same flags — the
		// drained spool must be byte-identical to the batch dataset's, and
		// the origin is part of those bytes.
		cfg := world.Config{Seed: *seed, Groups: *groups, Days: *days, SessionsPerGroupWindow: *spw}
		w := world.New(cfg)
		w.Instrument(reg)
		inj := faults.NewInjector(plan, *seed)
		if inj != nil {
			w.PoPDown = inj.Outage
		}
		w.Rec = rec
		opt.World = w
		opt.Injector = inj
		opt.Origin = seggen.Origin(cfg, inj)
	} else if plan != nil {
		log.Fatal("edgestudyd: -fault-plan shapes the live stream; in wire mode the fleet's plan shapes the data — pass it to the fleet's edgesim -pop processes instead")
	}

	d, err := studyd.New(opt)
	if err != nil {
		log.Fatalf("edgestudyd: %v", err)
	}
	var merger *ship.Merger
	if *listen != "" {
		// Wire mode: the ship merger owns the spool writer; the daemon
		// reads the at-rest segments and every merger commit invalidates
		// cached reports.
		merger, err = ship.NewMerger(ship.MergerOptions{
			SpoolDir: *out, Origin: *origin,
			ExpectPoPs: *expectPops,
			Reg:        reg, Rec: rec,
			OnCommit: d.BumpVersion,
		})
		if err != nil {
			log.Fatalf("edgestudyd: %v", err)
		}
	}

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		log.Fatalf("edgestudyd: -http: %v", err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatalf("edgestudyd: -addr-file: %v", err)
		}
	}
	srv := newServer(d.Handler())
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("edgestudyd: http: %v", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "edgestudyd: serving on http://%s\n", bound)

	start := time.Now()
	var runErr error
	if merger != nil {
		runErr = merger.ListenAndServe(ctx, *listen)
		merger.EmitTrace()
		if runErr == nil {
			d.SetDrained()
		}
	} else {
		runErr = d.RunLive(ctx, *workers)
	}
	flushTrace()

	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		log.Fatalf("edgestudyd: %v (everything committed is durable; rerun with the same flags to resume)", runErr)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "edgestudyd: interrupted — the spool holds every committed chunk; rerun with the same flags to resume")
		os.Exit(130)
	}
	if merger != nil {
		st := merger.Stats()
		fmt.Fprintf(os.Stderr, "edgestudyd: drained — merged %d shipments from %d PoPs in %s; still serving on http://%s (interrupt to exit)\n",
			st.Shipments, st.PopsDone, time.Since(start).Round(time.Millisecond), bound)
	} else {
		st := d.Stats()
		fmt.Fprintf(os.Stderr, "edgestudyd: drained — sealed %d windows, accepted %d of %d samples in %s; still serving on http://%s (interrupt to exit)\n",
			d.Watermark(), st.Accepted, st.Received, time.Since(start).Round(time.Millisecond), bound)
		if cov := d.Coverage(); cov != nil {
			fmt.Fprintln(os.Stderr, "edgestudyd: "+cov.Summary())
		}
	}

	// Linger: the spool is at rest but the service stays up — cached
	// reports now stay fresh forever — until the operator interrupts.
	<-ctx.Done()
	shctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(shctx)
}
