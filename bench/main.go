// Command bench is the repository's benchmark: four workloads over the
// whole measurement stack, each checked against an independently
// computed reference, printing every metric by name with its unit.
//
//	bench -workload batch_replay -seed 7 -seconds 24            end-to-end metrics, recorder off
//	bench -workload batch_replay -seed 7 -trace 1               per-layer metrics, recorder on
//	bench -compare a.jsonl b.jsonl                              two sets of runs (written with -out)
//
// See README.md for the metrics, what each workload bypasses, and
// which end-to-end metric each layer metric should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	name := flag.String("workload", "", "workload to run: batch_replay, generate_write, fleet_ship or live_serve")
	seed := flag.Uint64("seed", 1, "seed of the generated world; the program sees only generated inputs")
	seconds := flag.Float64("seconds", 24, "how long the untraced run measures for")
	traced := flag.Int("trace", 0, "1 repeats the workload taken apart, with spans, and prints the per-layer metrics")
	spans := flag.String("spans", "", "with -trace 1: write the recorded spans to this file as JSON when the run ends")
	out := flag.String("out", "", "append the run to this file of results (what -compare reads)")
	workdir := flag.String("workdir", ".bench_build/work", "directory the run creates its corpora under, and removes")
	compare := flag.Bool("compare", false, "compare two files of results: bench -compare a.jsonl b.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	w := workloadNamed(*name)
	if w == nil || flag.NArg() != 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	// Each process works under its own directory, so two runs in one
	// checkout do not share a corpus or a socket.
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o777); err != nil {
		fatal(err)
	}
	var res *result
	var err error
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
		res, err = runTraced(w, *seed, dir, *spans)
	} else {
		res, err = runUntraced(w, *seed, *seconds, dir, newCalibrator())
	}
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := res.appendTo(*out); err != nil {
			fatal(err)
		}
	}
	if err := res.print(os.Stdout, defs); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
