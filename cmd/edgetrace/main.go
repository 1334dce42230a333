// Command edgetrace inspects the deterministic flight traces written by
// `edgesim -trace` and `edgereport -trace` — the reproduction's answer
// to the paper's operational question of *where* a degraded window went
// wrong, in the spirit of Dapper-style distributed trace analysis.
//
// Usage:
//
//	edgetrace stages   <trace>      per-stage attribution: spans, samples, events
//	edgetrace critpath [-n N] <trace>  heaviest window per group and its event chain
//	edgetrace causes   <trace>      sender/network/receiver loss attribution
//	edgetrace diff     <a> <b>      stage-by-stage comparison of two runs
//
// The trace file is deterministic — byte-identical for a fixed (seed,
// plan) at any -workers count — so `edgetrace diff` of two runs of the
// same configuration must print "traces agree"; anything else is a
// reproducibility bug. `causes` attributes every lost sample to the
// sender (PoP outages: the data never existed), the network (batches
// truncated or dropped in flight), or the receiver (sink quarantines),
// and cross-checks the per-group loss events against the coverage
// ledger the run embedded; a reconciliation failure means the trace and
// the ledger disagree about what was lost, which voids both.
//
// The trace holds no physical measurements, so its bytes stay
// comparable across machines and worker counts: queue depths and stage
// wall clocks are the run's /metrics (-metrics-addr).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/report"
	"repro/internal/trace"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: edgetrace <stages|critpath|causes|diff> [flags] <trace> [<trace>]")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "stages":
		err = runStages(os.Stdout, args)
	case "critpath":
		err = runCritPath(os.Stdout, args)
	case "causes":
		err = runCauses(os.Stdout, args)
	case "diff":
		err = runDiff(os.Stdout, args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "edgetrace: %v\n", err)
		os.Exit(1)
	}
}

// load parses one trace file and warns when the flight recorder
// overwrote events — a truncated trace still analyses, but it no longer
// carries the byte-identity guarantee and totals may under-count.
func load(path string) (*trace.File, error) {
	f, err := trace.ParseFile(path)
	if err != nil {
		return nil, err
	}
	if f.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "edgetrace: warning: %s: flight recorder overwrote %d events; the trace is a suffix and totals may under-count\n", path, f.Dropped)
	}
	return f, nil
}

func one(args []string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("expected exactly one trace file, got %d arguments", len(args))
	}
	return args[0], nil
}

func runStages(w io.Writer, args []string) error {
	path, err := one(args)
	if err != nil {
		return err
	}
	f, err := load(path)
	if err != nil {
		return err
	}
	rows := trace.Stages(f)
	out := make([][]string, 0, len(rows))
	var spans int
	var samples int64
	for _, r := range rows {
		spans += r.Spans
		samples += r.Samples
		out = append(out, []string{
			trace.PhaseName(r.Phase), r.Stage,
			fmt.Sprint(r.Spans), fmt.Sprint(r.Samples), fmt.Sprint(r.Events),
		})
	}
	fmt.Fprintf(w, "== Stage attribution: %s (%d events, base %016x) ==\n", path, len(f.Events), f.Base)
	report.Table(w, []string{"phase", "stage", "spans", "samples", "events"}, out)
	fmt.Fprintf(w, "total: %d spans, %d samples attributed\n", spans, samples)
	return nil
}

func runCritPath(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("critpath", flag.ContinueOnError)
	n := fs.Int("n", 10, "show the n heaviest group paths (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path, err := one(fs.Args())
	if err != nil {
		return err
	}
	f, err := load(path)
	if err != nil {
		return err
	}
	rows := trace.CriticalPaths(f)
	shown := rows
	if *n > 0 && len(shown) > *n {
		shown = shown[:*n]
	}
	fmt.Fprintf(w, "== Critical paths: %s (heaviest window per group, %d of %d tracks) ==\n", path, len(shown), len(rows))
	for _, r := range shown {
		fmt.Fprintf(w, "\n%s window %d  (weight %d)\n", r.Track, r.Win, r.Samples)
		steps := make([][]string, 0, len(r.Steps))
		for _, e := range r.Steps {
			steps = append(steps, []string{
				trace.PhaseName(e.Phase), e.Kind.String(), e.Stage,
				fmt.Sprint(e.Value), e.Detail,
			})
		}
		report.Table(w, []string{"phase", "kind", "stage", "value", "detail"}, steps)
	}
	return nil
}

func runCauses(w io.Writer, args []string) error {
	path, err := one(args)
	if err != nil {
		return err
	}
	f, err := load(path)
	if err != nil {
		return err
	}
	rep := trace.Causes(f)
	fmt.Fprintf(w, "== Cause attribution: %s ==\n", path)
	if len(rep.Groups) == 0 {
		fmt.Fprintln(w, "no loss events: the run degraded nothing")
	} else {
		out := make([][]string, 0, len(rep.Groups))
		for _, g := range rep.Groups {
			out = append(out, []string{
				g.Track, fmt.Sprint(g.Sender), fmt.Sprint(g.Network),
				fmt.Sprint(g.Receiver), fmt.Sprint(g.Total()), join(g.Faults),
			})
		}
		report.Table(w, []string{"track", "sender", "network", "receiver", "total", "faults"}, out)
		fmt.Fprintf(w, "buckets: sender %d (never produced), network %d (lost in flight), receiver %d (refused/withdrawn)\n",
			rep.Sender, rep.Network, rep.Receiver)
	}
	fmt.Fprintf(w, "retry economy: %d retries spent, %d transients recovered\n", rep.Retries, rep.Recovered)
	if rep.Dedup > 0 {
		fmt.Fprintf(w, "shipping: %d duplicate deliveries dropped idempotently (replays and injected dups; never data loss)\n", rep.Dedup)
	}
	if rep.Checks == nil {
		fmt.Fprintln(w, "ledger: no coverage marks in the trace (fault-free or pre-ledger run); nothing to reconcile")
		return nil
	}
	out := make([][]string, 0, len(rep.Checks))
	for _, c := range rep.Checks {
		verdict := "ok"
		if !c.OK() {
			verdict = "MISMATCH"
		}
		out = append(out, []string{c.Loss, fmt.Sprint(c.Traced), fmt.Sprint(c.Ledger), verdict})
	}
	report.Table(w, []string{"cause", "traced", "ledger", "verdict"}, out)
	if !rep.Reconciled() {
		return fmt.Errorf("trace loss events do not reconcile with the coverage ledger")
	}
	fmt.Fprintln(w, "reconciled: every traced loss is accounted in the ledger, and vice versa")
	return nil
}

func runDiff(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("diff expects exactly two trace files")
	}
	a, err := load(args[0])
	if err != nil {
		return err
	}
	b, err := load(args[1])
	if err != nil {
		return err
	}
	rows := trace.Diff(a, b)
	var out [][]string
	for _, r := range rows {
		if r.Same() {
			continue
		}
		out = append(out, []string{
			trace.PhaseName(r.Phase), r.Stage,
			fmt.Sprint(r.ASpans), fmt.Sprint(r.BSpans),
			fmt.Sprint(r.ASamples), fmt.Sprint(r.BSamples),
		})
	}
	if len(out) == 0 {
		fmt.Fprintf(w, "traces agree: %d stages, identical spans and samples\n", len(rows))
		return nil
	}
	fmt.Fprintf(w, "== Stage diff: %s vs %s (%d of %d stages differ) ==\n", args[0], args[1], len(out), len(rows))
	report.Table(w, []string{"phase", "stage", "spans-a", "spans-b", "samples-a", "samples-b"}, out)
	return fmt.Errorf("traces differ")
}

func join(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}
