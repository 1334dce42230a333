package segstore

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/sample"
	"repro/internal/world"
)

// decodeRows decodes a segment block and materializes its rows.
func decodeRows(data []byte) ([]sample.Sample, error) {
	b, err := DecodeSegmentColumns(data)
	if err != nil {
		return nil, err
	}
	return b.AppendRows(nil), nil
}

// testSamples generates a realistic dataset through the world model.
func testSamples(t testing.TB, seed uint64, groups, days int) []sample.Sample {
	t.Helper()
	w := world.New(world.Config{Seed: seed, Groups: groups, Days: days, SessionsPerGroupWindow: 4})
	return w.GenerateAll()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rows := testSamples(t, 11, 6, 1)
	if len(rows) == 0 {
		t.Fatal("world generated no samples")
	}
	blob, meta := EncodeSegment(rows)
	if meta.Samples != len(rows) {
		t.Fatalf("meta.Samples = %d, want %d", meta.Samples, len(rows))
	}
	got, err := decodeRows(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, rows) {
		for i := range rows {
			if !reflect.DeepEqual(got[i], rows[i]) {
				t.Fatalf("row %d differs:\n got: %+v\nwant: %+v", i, got[i], rows[i])
			}
		}
		t.Fatal("decoded rows differ")
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	rows := testSamples(t, 3, 4, 1)
	a, _ := EncodeSegment(rows)
	b, _ := EncodeSegment(rows)
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same rows differ")
	}
}

func TestEncodeEmptySegment(t *testing.T) {
	blob, meta := EncodeSegment(nil)
	if meta.Samples != 0 {
		t.Fatalf("meta.Samples = %d, want 0", meta.Samples)
	}
	got, err := decodeRows(blob)
	if err != nil {
		t.Fatalf("decode(empty): %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d rows from an empty segment", len(got))
	}
}

// Extreme field values must survive the varint/zigzag/float paths.
func TestEncodeExtremeValues(t *testing.T) {
	rows := []sample.Sample{
		{SessionID: 1<<63 - 1, Start: -time.Hour, Duration: 1<<62 - 1, Bytes: -1,
			DistanceKm: -0.0, BusyFraction: 1e-308, MinRTT: -1, ResponseBytes: []int64{0, -1, 1 << 62}},
		{SessionID: 0, Start: 0, DistanceKm: 1e308, Country: "", PoP: "", ResponseBytes: nil},
	}
	blob, _ := EncodeSegment(rows)
	got, err := decodeRows(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("extreme rows did not round-trip:\n got: %+v\nwant: %+v", got, rows)
	}
}

// Any single-byte corruption must be a loud error, never bad data.
func TestDecodeDetectsCorruption(t *testing.T) {
	rows := testSamples(t, 5, 3, 1)
	blob, _ := EncodeSegment(rows)
	for _, off := range []int{0, 7, len(blob) / 3, len(blob) / 2, len(blob) - 5} {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x40
		got, err := decodeRows(mut)
		if err == nil && !reflect.DeepEqual(got, rows) {
			t.Fatalf("flipping byte %d decoded silently to different rows", off)
		}
	}
	for _, cut := range []int{1, len(segMagic), len(blob) / 2, len(blob) - 1} {
		if _, err := DecodeSegmentColumns(blob[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", cut)
		}
	}
}

func TestWriterCommitAndReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds.seg")
	rows := testSamples(t, 7, 4, 1)
	w, err := Create(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	half := len(rows) / 2
	for id, part := range [][]sample.Sample{rows[:half], rows[half:]} {
		blob, meta := EncodeSegment(part)
		if err := w.Add(id, blob, meta); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	w.Tombstone(2, "permanent write failure", 42)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	if !IsDataset(dir) {
		t.Fatal("IsDataset is false on a committed dataset")
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if got := r.Manifest().TotalSamples(); got != len(rows) {
		t.Fatalf("manifest samples = %d, want %d", got, len(rows))
	}
	if len(r.Manifest().Tombstones) != 1 || r.Manifest().Tombstones[0].SamplesLost != 42 {
		t.Fatalf("tombstone not preserved: %+v", r.Manifest().Tombstones)
	}
	var back []sample.Sample
	if err := r.Scan(context.Background(), 1, nil, func(b []sample.Sample) error {
		back = append(back, b...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rows) {
		t.Fatal("scanned rows differ from written rows")
	}

	// Resume: both IDs are accounted (1 segment pair + tombstone).
	w2, err := Create(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 1, 2} {
		if !w2.Committed(id) {
			t.Fatalf("resumed writer does not know segment %d", id)
		}
	}
	if w2.Committed(3) {
		t.Fatal("resumed writer invented segment 3")
	}
	// A different origin must refuse to resume.
	if _, err := Create(dir, "other"); err == nil {
		t.Fatal("Create resumed a dataset with a mismatched origin")
	}
}

// A rotted segment file is dropped on resume so the caller regenerates
// it — never trusted.
func TestResumeDropsCorruptSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds.seg")
	rows := testSamples(t, 9, 3, 1)
	w, err := Create(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	blob, meta := EncodeSegment(rows)
	if err := w.Add(0, blob, meta); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentFileName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	w2, err := Create(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	if w2.Committed(0) {
		t.Fatal("resume trusted a segment whose checksum no longer matches")
	}
	// And a reader must refuse the rotted segment loudly.
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	err = r.ScanColumns(context.Background(), 1, nil, func(b *ColumnBatch) error {
		b.Release()
		return nil
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scan of rotted file: err = %v, want ErrCorrupt", err)
	}
}

func TestPruneAndRowFilterAgree(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds.seg")
	rows := testSamples(t, 42, 8, 2)
	w, err := Create(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ConvertJSONL(context.Background(), bytes.NewReader(jsonlBytes(t, rows)), w); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()

	// Scan's row view releases each batch once its rows are emitted.
	before, _ := LeakStats()
	country := rows[0].Country
	filters := []*Filter{
		nil,
		{From: 6 * time.Hour, To: 18 * time.Hour},
		{Countries: []string{country}},
		{From: 20 * time.Hour, Countries: []string{country}},
		{To: time.Hour, PoPs: []string{rows[0].PoP}},
	}
	for _, f := range filters {
		want := 0
		for i := range rows {
			if f.Match(&rows[i]) {
				want++
			}
		}
		for _, workers := range []int{1, 4} {
			got := 0
			if err := r.Scan(context.Background(), workers, f, func(b []sample.Sample) error {
				got += len(b)
				return nil
			}); err != nil {
				t.Fatalf("Scan(%v, workers=%d): %v", f, workers, err)
			}
			if got != want {
				t.Errorf("filter %v workers=%d: scanned %d rows, row predicate says %d", f, workers, got, want)
			}
		}
		if f != nil {
			pruned := len(r.man.Segments) - len(r.Prune(f))
			t.Logf("filter %v: pruned %d/%d segments", f, pruned, len(r.man.Segments))
		}
	}
	if out, _ := LeakStats(); out != before {
		t.Errorf("outstanding batches = %d after the scans, want %d", out, before)
	}

	// Time pruning must actually skip segments on a multi-day dataset.
	kept := r.Prune(&Filter{From: 0, To: 2 * time.Hour})
	if len(kept) >= len(r.man.Segments) {
		t.Fatalf("time filter pruned nothing: %d of %d segments kept", len(kept), len(r.man.Segments))
	}
}

// jsonlBytes renders rows the way cmd/edgesim writes them.
func jsonlBytes(t *testing.T, rows []sample.Sample) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := sample.NewWriter(&buf)
	for i := range rows {
		if err := sw.Write(rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}
