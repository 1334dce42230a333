package study

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/collector"
	"repro/internal/sample"
	"repro/internal/segstore"
	"repro/internal/world"
)

// colaggCorpus is a segment dataset shared by the columnar-aggregation
// benchmarks (built once; b.TempDir is cleaned per benchmark).
var colaggCorpus struct {
	once sync.Once
	dir  string
	rows int
}

func colaggDataset(b *testing.B) (string, int) {
	b.Helper()
	colaggCorpus.once.Do(func() {
		w := world.New(world.Config{Seed: 42, Groups: 25, Days: 2, SessionsPerGroupWindow: 40})
		var buf bytes.Buffer
		sw := sample.NewWriter(&buf)
		n := 0
		for _, s := range w.GenerateAll() {
			if err := sw.Write(s); err != nil {
				b.Fatal(err)
			}
			n++
		}
		tmp, err := os.MkdirTemp("", "colagg-bench-")
		if err != nil {
			b.Fatal(err)
		}
		dir := filepath.Join(tmp, "ds.seg")
		sgw, err := segstore.Create(dir, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := segstore.ConvertJSONL(context.Background(), bytes.NewReader(buf.Bytes()), sgw); err != nil {
			b.Fatal(err)
		}
		colaggCorpus.dir, colaggCorpus.rows = dir, n
	})
	return colaggCorpus.dir, colaggCorpus.rows
}

// BenchmarkColaggRows is the row oracle: scan the segment dataset,
// materialize sample.Sample rows, aggregate one at a time, seal.
func BenchmarkColaggRows(b *testing.B) {
	dir, rows := colaggDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := segstore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		st := agg.NewStore()
		// This benchmark measures the row oracle on purpose.
		err = r.Scan(context.Background(), 1, nil, func(rs []sample.Sample) error {
			for j := range rs {
				st.Add(rs[j])
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		st.Seal(1)
		if st.TotalSamples != rows {
			b.Fatalf("aggregated %d of %d rows", st.TotalSamples, rows)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkColaggBatches is the hot path: the same dataset through
// ScanColumns and Store.AddBatch — no row structs anywhere between
// decode and the sealed store.
func BenchmarkColaggBatches(b *testing.B) {
	dir, rows := colaggDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := segstore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		st := agg.NewStore()
		err = r.ScanColumns(context.Background(), 1, nil, func(cb *segstore.ColumnBatch) error {
			st.AddBatch(cb)
			cb.Release()
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		st.Seal(1)
		if st.TotalSamples != rows {
			b.Fatalf("aggregated %d of %d rows", st.TotalSamples, rows)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkColaggFullStudy runs the complete FromSegments analysis on
// the batch path — what `edgereport -in ds.seg` costs end to end.
func BenchmarkColaggFullStudy(b *testing.B) {
	dir, _ := colaggDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromSegments(context.Background(), dir, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// The collector's batch pipeline must agree with the row pipeline on
// counters when fed pre-compacted vs raw batches (unit-level guard for
// the benchmark paths above).
func TestOfferColumnsCounters(t *testing.T) {
	w := world.New(world.Config{Seed: 77, Groups: 3, Days: 1, SessionsPerGroupWindow: 4})
	rows := w.GenerateAll()
	blob, _ := segstore.EncodeSegment(rows)
	cb, err := segstore.DecodeSegmentColumns(blob)
	if err != nil {
		t.Fatal(err)
	}
	rowCol := collector.New()
	rowStore := agg.NewStore()
	rowCol.AddSink(collector.StoreSink(rowStore))
	for _, s := range rows {
		rowCol.Offer(s)
	}
	batchCol := collector.New()
	batchStore := agg.NewStore()
	batchCol.AddColumnSink(collector.StoreColumnSink(batchStore))
	batchCol.OfferColumns(cb)
	if rowCol.Stats() != batchCol.Stats() {
		t.Fatalf("collector stats differ: rows %+v, batch %+v", rowCol.Stats(), batchCol.Stats())
	}
	if rowStore.TotalSamples != batchStore.TotalSamples {
		t.Fatalf("stores aggregated %d vs %d samples", batchStore.TotalSamples, rowStore.TotalSamples)
	}
}
