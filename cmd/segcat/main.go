// Command segcat is the door through which JSON lines enter and leave:
// the dataset every other binary writes and reads is the columnar
// segment store (internal/segstore), and segcat imports a JSONL file
// (one record per line) into one or exports one as JSONL for external
// tooling. The direction is auto-detected from -in: a segment-store
// directory extracts to JSONL, anything else converts to a segment
// store. Sample order is preserved exactly both ways, so
// jsonl → seg → jsonl is byte-identical.
//
// Usage:
//
//	segcat -in ds.jsonl -o ds.seg
//	segcat -in ds.seg -o ds.jsonl
//	segcat -in ds.seg -o - -from 24h -to 48h -country US
//
// An import cuts a segment per user group and day, and at
// segstore.DefaultMaxRows rows; an export decodes on GOMAXPROCS workers.
//
// Extraction accepts -from/-to/-country/-pop: the filter is pushed down
// to the manifest, so segments wholly outside the slice are never read.
//
// SIGINT/SIGTERM stop an import at the next segment commit: segcat
// exits 130 and the manifest holds every segment committed so far — a
// readable dataset. A second signal forces an immediate exit.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/pipeline"
	"repro/internal/segstore"
	"repro/internal/sigctl"
)

func main() {
	var (
		in      = flag.String("in", "", "input dataset: a JSONL file or a segment-store directory (required)")
		out     = flag.String("o", "", "output path: a directory for jsonl→seg, a file or '-' for seg→jsonl (required)")
		from    = flag.Duration("from", 0, "seg→jsonl: only extract sessions starting at or after this dataset offset")
		to      = flag.Duration("to", 0, "seg→jsonl: only extract sessions starting before this dataset offset (0 = end)")
		country = flag.String("country", "", "seg→jsonl: only extract these countries (comma-separated ISO codes)")
		pop     = flag.String("pop", "", "seg→jsonl: only extract these PoPs (comma-separated)")
	)
	flag.Parse()
	if *in == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	filter, err := segstore.ParseFilter(*from, *to, *country, *pop)
	if err != nil {
		log.Fatalf("segcat: %v", err)
	}

	ctx, stop := sigctl.Context(context.Background(),
		"segcat: second interrupt — forcing exit; an import's manifest holds the last committed segment")
	defer stop()

	start := time.Now()
	if segstore.IsDataset(*in) {
		extract(ctx, *in, *out, filter, start)
		return
	}
	if filter != nil {
		log.Fatal("segcat: -from/-to/-country/-pop only apply when extracting a segment store (conversion keeps every row)")
	}
	convert(ctx, *in, *out, start)
}

// convert packs a JSONL file into a segment store. The store commits
// after every segment, so an interrupted conversion leaves a readable
// prefix; origin strings pin the source path, keeping two sources out
// of one dataset.
func convert(ctx context.Context, in, out string, start time.Time) {
	f, err := os.Open(in)
	if err != nil {
		log.Fatalf("segcat: %v", err)
	}
	defer f.Close()
	w, err := segstore.Create(out, "segcat "+in)
	if err != nil {
		log.Fatalf("segcat: %v", err)
	}
	segs, samples, err := segstore.ConvertJSONL(ctx, f, w)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "segcat: interrupted — %d samples in %d segments committed; %s is a readable dataset\n", samples, segs, out)
		os.Exit(130)
	}
	if err != nil {
		log.Fatalf("segcat: converting %s: %v", in, err)
	}
	var inBytes int64
	if fi, err := f.Stat(); err == nil {
		inBytes = fi.Size()
	}
	outBytes := w.Manifest().TotalBytes()
	ratio := "?"
	if outBytes > 0 && inBytes > 0 {
		ratio = fmt.Sprintf("%.2fx", float64(inBytes)/float64(outBytes))
	}
	fmt.Fprintf(os.Stderr, "segcat: packed %d samples into %d segments — %d → %d bytes (%s smaller) in %v\n",
		samples, segs, inBytes, outBytes, ratio, time.Since(start).Round(time.Millisecond))
}

// extract streams a segment store (or a filtered slice of it) back out
// as JSON lines.
func extract(ctx context.Context, in, out string, filter *segstore.Filter, start time.Time) {
	r, err := segstore.Open(in)
	if err != nil {
		log.Fatalf("segcat: %v", err)
	}
	f := os.Stdout
	if out != "-" {
		f, err = os.Create(out)
		if err != nil {
			log.Fatalf("segcat: %v", err)
		}
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	n, err := segstore.WriteJSONL(ctx, r, bw, pipeline.DefaultWorkers(), filter)
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if f != os.Stdout {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		log.Fatalf("segcat: extracting %s: %v", in, err)
	}
	fmt.Fprintf(os.Stderr, "segcat: extracted %d samples in %v\n", n, time.Since(start).Round(time.Millisecond))
}
