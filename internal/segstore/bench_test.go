package segstore

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/sample"
	"repro/internal/world"
)

// benchCorpus is built once: ~190k samples (25 groups × 2 days at the
// study's default session rate) as JSONL bytes and as a segment
// directory, so the two scan benchmarks read the same rows.
var benchCorpus struct {
	once  sync.Once
	jsonl []byte
	dir   string
	rows  int
}

func benchDataset(b *testing.B) ([]byte, string, int) {
	b.Helper()
	benchCorpus.once.Do(func() {
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
		// The corpus must outlive every benchmark in the binary, so it
		// cannot live in b.TempDir (cleaned per benchmark).
		tmp, err := os.MkdirTemp("", "segstore-bench-")
		if err != nil {
			b.Fatal(err)
		}
		dir := filepath.Join(tmp, "ds.seg")
		sgw, err := Create(dir, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ConvertJSONL(context.Background(), bytes.NewReader(buf.Bytes()), sgw); err != nil {
			b.Fatal(err)
		}
		benchCorpus.jsonl = buf.Bytes()
		benchCorpus.dir = dir
		benchCorpus.rows = n
	})
	return benchCorpus.jsonl, benchCorpus.dir, benchCorpus.rows
}

// BenchmarkJSONLScan is the baseline: decode every line of the dataset
// the way the sequential study path does. MB/s is over the JSONL bytes.
func BenchmarkJSONLScan(b *testing.B) {
	data, _, rows := benchDataset(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sample.NewReader(bytes.NewReader(data))
		n := 0
		for {
			_, err := r.Read()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != rows {
			b.Fatalf("decoded %d of %d rows", n, rows)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkSegstoreScan decodes the same rows from the columnar format
// (one decode worker — the fair comparison, though it reads a segment
// ahead of the consumer on a goroutine of its own). MB/s is over the segment
// bytes actually read, so the speedup over BenchmarkJSONLScan combines
// decode efficiency and the compression ratio (reported as a metric).
func BenchmarkSegstoreScan(b *testing.B) {
	data, dir, rows := benchDataset(b)
	r, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}()
	segBytes := r.Manifest().TotalBytes()
	b.SetBytes(segBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := r.Scan(context.Background(), 1, nil, func(rows []sample.Sample) error {
			n += len(rows)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if n != rows {
			b.Fatalf("decoded %d of %d rows", n, rows)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	b.ReportMetric(float64(len(data))/float64(segBytes), "compression-x")
}
