// Command edgemerged is the central merge tier for a multi-PoP fleet:
// it listens for shipping connections from the fleet's PoPs (`edgesim
// -pop I -pops N -merger ADDR`), spools accepted segments into an
// ordinary segstore dataset under the same commit protocol the PoPs use
// locally, and deduplicates replayed shipments idempotently by (origin,
// segment ID, content hash).
//
// Usage:
//
//	edgemerged -o spool -listen ADDR -expect-pops N
//	           [-origin STR] [-metrics-addr host:port] [-trace file]
//
// ADDR is a unix socket path when it holds a path separator, else a
// tcp host:port.
//
// The spool directory ends byte-identical to the dataset a single
// `edgesim` run with the fleet's flags would have written:
// manifests render sorted by segment ID and blobs are pure functions
// of their sample slices, so arrival order, PoP count, duplicate
// deliveries, and merger restarts (the spool manifest is resumed, its
// committed hashes reseeding the dedup table) leave no byte behind.
// Run edgereport over the spool to fold it into the global report.
//
// The merger exits 0 once -expect-pops distinct PoPs have completed
// their DONE handshake, or on SIGINT/SIGTERM (everything committed so
// far is durable; restart to keep receiving).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/ship"
	"repro/internal/sigctl"
	"repro/internal/trace"
)

func main() {
	var (
		out         = flag.String("o", "", "spool dataset directory (required; resumed if it already holds a dataset)")
		listen      = flag.String("listen", "", "address to listen on (host:port, or a unix socket path; required)")
		expectPops  = flag.Int("expect-pops", 1, "exit once this many distinct PoPs complete their DONE handshake")
		origin      = flag.String("origin", "", "pin the spool origin; refuse shippers that disagree (default: adopt the first shipper's)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		tracePath   = flag.String("trace", "", "record a deterministic flight trace of the merge to this file")
		seed        = flag.Uint64("seed", 1, "trace seed (must match the fleet's for edgetrace diff)")
	)
	flag.Parse()

	if *out == "" {
		log.Fatal("edgemerged: -o is required (the spool dataset directory)")
	}
	if *listen == "" {
		log.Fatal("edgemerged: -listen is required")
	}
	if *expectPops < 1 {
		log.Fatalf("edgemerged: -expect-pops %d out of range", *expectPops)
	}

	ctx, stop := sigctl.Context(context.Background(),
		"edgemerged: second interrupt — forcing exit; the spool manifest holds the last committed state")
	defer stop()

	reg := obs.NewRegistry()
	if *metricsAddr != "" {
		go func() {
			if err := reg.ListenAndServe(*metricsAddr); err != nil {
				log.Printf("edgemerged: metrics server: %v", err)
			}
		}()
	}

	var rec *trace.Recorder
	if *tracePath != "" {
		rec = trace.New(*seed)
	}

	m, err := ship.NewMerger(ship.MergerOptions{
		SpoolDir: *out, Origin: *origin,
		ExpectPoPs: *expectPops,
		Reg:        reg, Rec: rec,
	})
	if err != nil {
		log.Fatalf("edgemerged: %v", err)
	}

	start := time.Now()
	serveErr := m.ListenAndServe(ctx, *listen)
	m.EmitTrace()
	if rec != nil {
		if werr := rec.WriteFile(*tracePath); werr != nil {
			log.Printf("edgemerged: writing trace: %v", werr)
		}
	}
	st := m.Stats()
	if serveErr != nil && !errors.Is(serveErr, context.Canceled) {
		log.Fatalf("edgemerged: %v (%d shipments committed and durable; restart to keep receiving)", serveErr, st.Shipments)
	}
	if serveErr != nil {
		fmt.Fprintf(os.Stderr, "edgemerged: interrupted — %d shipments committed (%d deduped); the spool is durable, restart to keep receiving\n",
			st.Shipments, st.Dedup)
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "edgemerged: merged %d shipments (%d segments+tombstones deduped, %d tombstones) from %d PoPs over %d connections in %s; %d bytes spooled\n",
		st.Shipments, st.Dedup, st.Tombstones, st.PopsDone, st.Conns, time.Since(start).Round(time.Millisecond), st.Bytes)
	if st.HashConflicts > 0 {
		fmt.Fprintf(os.Stderr, "edgemerged: WARNING — %d hash conflicts refused; the fleet shipped disagreeing bytes for the same slot\n", st.HashConflicts)
	}
}
