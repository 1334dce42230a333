// Command edgesim generates the synthetic measurement dataset — the
// stand-in for the paper's 10-day production capture (§2.2.4) — and
// writes it as JSON lines, one sampled HTTP session per line, after the
// collector's hosting-provider filter.
//
// Usage:
//
//	edgesim [-seed N] [-groups N] [-days N] [-spw N] [-o dataset.jsonl]
//	        [-workers N] [-progress] [-metrics-addr host:port]
//
// A 10-day, 300-group dataset is a few million sessions and a few GB of
// JSON; scale -groups/-days/-spw to taste. -workers (default GOMAXPROCS)
// generates and encodes groups concurrently while a single writer stage
// keeps the output in deterministic group order, so the dataset bytes do
// not depend on the worker count. -progress reports sessions per second
// and per-stage wall time to stderr while the run grinds; -metrics-addr
// additionally serves /metrics (Prometheus text), /debug/vars, and
// /debug/pprof — including pipeline_queue_depth{stage="write"} for the
// encode→write queue. The output feeds external tooling; cmd/edgereport
// regenerates and analyses in-process instead.
//
// SIGINT/SIGTERM cancel the pipeline cleanly: in-flight groups are
// abandoned, the contiguous prefix already ordered is flushed, and the
// process exits with a valid (truncated) JSONL dataset rather than a
// torn file. A second SIGINT/SIGTERM skips the orderly drain and exits
// immediately, leaving whatever bytes already reached the file.
//
// -fault-plan injects deterministic failures (see internal/faults) at
// the generator, batch, and writer surfaces: PoP outages suppress
// windows at the source, batch faults truncate or drop whole group
// batches, and write faults fail the ordered write stage — transient
// streaks are absorbed by retry with backoff, permanent ones quarantine
// the group's batch (or abort the run under -fail-fast). The same seed
// and plan yield a byte-identical degraded dataset at any -workers
// count; the losses are accounted on stderr when the run ends.
package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"repro/internal/collector"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sample"
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
		out         = flag.String("o", "-", "output path ('-' for stdout; a directory with -format seg)")
		format      = flag.String("format", "jsonl", "dataset format: jsonl (a stream of JSON lines) or seg (a columnar segment-store directory)")
		workers     = flag.Int("workers", pipeline.DefaultWorkers(), "concurrent generate/encode workers (1 = sequential)")
		progress    = flag.Bool("progress", false, "report generation progress to stderr every 2s")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		faultPlan   = flag.String("fault-plan", "", "deterministic fault-injection plan (key=value;... — see internal/faults; '' or 'none' disables)")
		failFast    = flag.Bool("fail-fast", false, "abort on the first unrecoverable injected fault instead of degrading")
		tracePath   = flag.String("trace", "", "record a deterministic flight trace of the run to this file (timing sidecar lands next to it); inspect with edgetrace")
	)
	flag.Parse()

	plan, err := faults.ParsePlan(*faultPlan)
	if err != nil {
		log.Fatalf("edgesim: -fault-plan: %v", err)
	}

	if *format != "jsonl" && *format != "seg" {
		log.Fatalf("edgesim: -format %q (want jsonl or seg)", *format)
	}
	if *format == "seg" && *out == "-" {
		log.Fatal("edgesim: -format seg writes a dataset directory; pass one with -o")
	}

	notice := "edgesim: second interrupt — forcing exit; the dataset is partial and may end mid-line"
	if *format == "seg" {
		notice = "edgesim: second interrupt — forcing exit; the manifest holds the last committed state"
	}
	ctx, stop := sigctl.Context(context.Background(), notice)
	defer stop()

	var f *os.File
	if *format == "seg" {
		f = nil // the segment store manages its own files
	} else if *out == "-" {
		f = os.Stdout
	} else {
		var err error
		f, err = os.Create(*out)
		if err != nil {
			log.Fatalf("edgesim: %v", err)
		}
	}

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

	w := world.New(world.Config{
		Seed:                   *seed,
		Groups:                 *groups,
		Days:                   *days,
		SessionsPerGroupWindow: *spw,
	})
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

	if *format == "seg" {
		spec := ""
		if inj != nil {
			spec = inj.Plan().Spec()
		}
		// The origin pins everything that shapes the dataset bytes; resume
		// with different flags is refused rather than silently interleaved.
		origin := fmt.Sprintf("edgesim seed=%d groups=%d days=%d spw=%g plan=%q", *seed, *groups, *days, *spw, spec)
		st, written, resumed, cov, runErr := runSeg(ctx, w, *out, origin, reg, *workers, inj, *failFast, rec)
		stopProgress()
		flushTrace()
		if runErr != nil && !errors.Is(runErr, context.Canceled) {
			log.Fatalf("edgesim: %v", runErr)
		}
		if runErr != nil { // interrupted; everything committed is durable
			fmt.Fprintf(os.Stderr, "edgesim: interrupted — %d samples committed this run; the manifest is intact, rerun with the same flags to resume\n", written)
			os.Exit(130)
		}
		msg := fmt.Sprintf("edgesim: committed %d samples (%d filtered as hosting/VPN) across %d groups × %d windows",
			written, st.FilteredHosting, *groups, w.Cfg.Windows())
		if resumed > 0 {
			msg += fmt.Sprintf("; %d groups already committed by a previous run", resumed)
		}
		fmt.Fprintln(os.Stderr, msg)
		reportCoverage(cov)
		return
	}

	bw := bufio.NewWriterSize(f, 1<<20)
	st, written, cov, runErr := run(ctx, w, bw, reg, *workers, inj, *failFast, rec)
	stopProgress()
	flushTrace()

	// Flush and close unconditionally: on cancellation the contiguous
	// prefix already written is still a valid dataset, and a full disk
	// can surface only here. A pipeline error takes precedence over the
	// flush error it usually caused (bufio keeps the first write failure
	// sticky, so both fire together on e.g. a full disk).
	flushErr := bw.Flush()
	var closeErr error
	if f != os.Stdout {
		closeErr = f.Close()
	}
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		if st.DroppedAfterError > 0 {
			log.Fatalf("edgesim: %v (%d samples dropped after the error)", runErr, st.DroppedAfterError)
		}
		log.Fatalf("edgesim: %v", runErr)
	}
	if flushErr != nil {
		log.Fatalf("edgesim: flush: %v", flushErr)
	}
	if closeErr != nil {
		log.Fatalf("edgesim: close: %v", closeErr)
	}
	if runErr != nil { // interrupted, and the prefix flushed cleanly
		fmt.Fprintf(os.Stderr, "edgesim: interrupted — dataset truncated after %d samples (prefix is valid JSONL)\n", written)
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "edgesim: wrote %d samples (%d filtered as hosting/VPN) across %d groups × %d windows\n",
		written, st.FilteredHosting, *groups, w.Cfg.Windows())
	reportCoverage(cov)
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

// run generates the dataset into bw and returns the collector totals,
// the number of samples actually written, the degradation ledger (nil
// without a fault plan), and the first pipeline error (context.Canceled
// after SIGINT). Whatever it returns, bytes already handed to bw form
// whole JSON lines in group order.
func run(ctx context.Context, w *world.World, bw *bufio.Writer, reg *obs.Registry, workers int, inj *faults.Injector, failFast bool, rec *trace.Recorder) (collector.Stats, int, *faults.Coverage, error) {
	// Chaos and traced runs always take the batch path, even at
	// -workers 1: the fault surfaces (batch fate, write retry) live
	// there, and keeping one code path per plan is what makes the worker
	// count irrelevant to the output bytes — and to the trace bytes.
	if workers <= 1 && inj == nil && rec == nil {
		col := collector.New(collector.WriterSink(sample.NewWriter(bw)))
		col.Instrument(reg)
		err := w.GenerateCtx(ctx, 1, col.Offer)
		if serr := col.Err(); serr != nil {
			err = serr // the write failure is the root cause
		}
		st := col.Stats()
		return st, st.Accepted, nil, err
	}

	// Parallel mode: workers generate and encode whole groups
	// concurrently; a single writer stage restores group order so the
	// output is byte-identical to -workers 1. The fault surfaces are
	// faults.Guard's; this function only moves bytes.
	type encBatch struct {
		group   int
		data    []byte
		samples int
		// fate carries the batch surface's verdict to the single-owner
		// writer goroutine, which emits the trace events for it — the
		// generation callback runs on many workers and may not share a
		// trace ring.
		fate faults.BatchFate
	}
	guard := faults.NewGuard(inj, failFast)
	var (
		mu      sync.Mutex // guards total (encode workers merge into it)
		total   collector.Stats
		written int // owned by the ordered writer
	)
	encSpan := reg.Span(obs.L("edgesim_stage_seconds", "stage", "encode"), "edgesim")
	writeSpan := reg.Span(obs.L("edgesim_stage_seconds", "stage", "write"), "edgesim")

	g := pipeline.NewGroup(ctx)
	g.Trace(rec)
	enc := pipeline.NewStream[encBatch](workers)
	enc.Instrument(reg, "write")
	enc.Observe(rec, "write")
	tb := rec.Buf() // owned by the ordered writer goroutine below
	g.Go(func(ctx context.Context) error {
		defer enc.Close()
		return w.GenerateBatchesUnordered(ctx, workers, func(b world.Batch) error {
			guard.Outage(b.Lost) // PoP outage suppressed windows at the source
			fate, err := guard.Batch(b.Group, len(b.Samples))
			if err != nil {
				return err
			}
			if fate.Dropped() {
				// Reorder needs a gapless group sequence: send a tombstone.
				return enc.Send(ctx, encBatch{group: b.Group, fate: fate})
			}
			// Filter and encode the surviving prefix through the batch's
			// own collector (WriterSink is single-threaded).
			sp := encSpan.Start()
			var buf bytes.Buffer
			c := collector.New(collector.WriterSink(sample.NewWriter(&buf)))
			c.Instrument(reg)
			for _, s := range b.Samples[:len(b.Samples)-fate.Lost] {
				c.Offer(s)
			}
			sp.End()
			if err := c.Err(); err != nil {
				return err
			}
			st := c.Stats()
			mu.Lock()
			total = total.Merge(st)
			mu.Unlock()
			return enc.Send(ctx, encBatch{group: b.Group, data: buf.Bytes(), samples: st.Accepted, fate: fate})
		})
	})
	g.Go(func(ctx context.Context) error {
		return pipeline.Reorder(ctx, enc, func(b encBatch) int { return b.group }, 0, func(b encBatch) error {
			b.fate.Emit(tb)
			if len(b.data) == 0 { // tombstone for a dropped batch
				return nil
			}
			// A group that falls to the write surface simply leaves no
			// lines behind: JSONL has nowhere to record a tombstone.
			ok, err := guard.Write(ctx, tb, b.group, b.samples, func() error {
				sp := writeSpan.Start()
				defer sp.End()
				_, werr := bw.Write(b.data)
				return werr
			}, nil)
			if ok {
				written += b.samples
			}
			return err
		})
	})
	err := g.Wait()
	mu.Lock()
	st := total
	mu.Unlock()
	cov := guard.Coverage()
	cov.EmitTrace(tb) // writer goroutine has returned; main owns the ring now
	return st, written, cov, err
}
