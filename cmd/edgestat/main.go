// Command edgestat inspects a measurement dataset (the columnar
// segment-store directory cmd/edgesim writes; a JSON-lines file is
// imported first with `segcat -in x.jsonl -o dir`): it prints a
// per-user-group roll-up — traffic, coverage, medians, baseline and
// worst degradation — sorted by traffic, the view an operator would use
// to find the groups worth investigating.
//
// Usage:
//
//	edgesim -groups 60 -days 2 -o ds.seg
//	edgestat -in ds.seg [-top 20]
//	edgestat -in ds.seg -from 24h -country US,BR
//
// -from/-to/-country/-pop restrict the roll-up to a slice of the
// dataset; the filter prunes whole segments via the manifest before
// any data is read.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/agg"
	"repro/internal/analysis"
	"repro/internal/collector"
	"repro/internal/report"
	"repro/internal/segstore"
)

func main() {
	var (
		in      = flag.String("in", "", "dataset directory (required)")
		top     = flag.Int("top", 20, "number of groups to print (0 = all)")
		from    = flag.Duration("from", 0, "only count sessions starting at or after this dataset offset (e.g. 24h)")
		to      = flag.Duration("to", 0, "only count sessions starting before this dataset offset (0 = end)")
		country = flag.String("country", "", "only count these countries (comma-separated ISO codes)")
		pop     = flag.String("pop", "", "only count these PoPs (comma-separated)")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	filter, err := segstore.ParseFilter(*from, *to, *country, *pop)
	if err != nil {
		log.Fatalf("edgestat: %v", err)
	}
	if err := run(*in, filter, *top, os.Stdout); err != nil {
		log.Fatalf("edgestat: %v", err)
	}
}

// run writes the roll-up of the dataset at in, restricted to f, to w:
// the top groups by traffic (all of them when top is 0).
func run(in string, f *segstore.Filter, top int, w io.Writer) error {
	// Segment batches feed the store's columnar fold directly — the
	// roll-up never materializes row structs.
	store := agg.NewStore()
	col := collector.New()
	col.AddColumnSink(collector.StoreColumnSink(store))
	r, err := segstore.Open(in)
	if err != nil {
		return err
	}
	err = r.ScanColumns(context.Background(), 1, f, func(b *segstore.ColumnBatch) error {
		col.OfferColumns(b)
		b.Release()
		return col.Err()
	})
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("reading %s: %w", in, err)
	}

	summaries := analysis.SummariseGroups(store)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d groups, %d samples, %d windows\n\n", store.Len(), store.TotalSamples, store.TotalWindows)
	rows := make([][]string, 0, len(summaries))
	for i, g := range summaries {
		if top > 0 && i >= top {
			break
		}
		rows = append(rows, []string{
			g.Key,
			string(g.Continent),
			fmt.Sprintf("%d", g.Sessions),
			fmt.Sprintf("%.0f%%", g.Coverage*100),
			report.F(g.MinRTTP50) + "ms",
			report.F(g.HDratioP50),
			report.F(g.Baseline) + "ms",
			report.F(g.WorstDegradation) + "ms",
			fmt.Sprintf("%d", g.Routes),
		})
	}
	report.Table(bw, []string{
		"group", "cont", "sessions", "coverage", "minrtt-p50", "hd-p50", "baseline", "worst-deg", "routes",
	}, rows)
	return bw.Flush()
}
