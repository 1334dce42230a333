package segstore

import (
	"bytes"
	"context"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sample"
)

// The golden guarantee of the storage layer: jsonl → seg → jsonl is
// byte-identical — for multiple seeds, and with the seg side scanned at
// several worker counts. Exact floats survive because columns store raw
// IEEE-754 bits and Go's JSON encoder emits the shortest round-trip
// representation; order survives because segments cut on (group, span)
// boundaries and scans re-emit them in manifest order. CRLF endings and
// blank lines in the import are not records: that copy packs and
// extracts to the same bytes.
func TestGoldenRoundTripJSONLSegJSONL(t *testing.T) {
	for _, seed := range []uint64{42, 7} {
		rows := testSamples(t, seed, 9, 2)
		want := jsonlBytes(t, rows)
		spaced := bytes.ReplaceAll(want, []byte("\n"), []byte("\r\n\n"))
		for _, src := range [][]byte{want, spaced} {
			dir := filepath.Join(t.TempDir(), "ds.seg")
			w, err := Create(dir, "golden")
			if err != nil {
				t.Fatal(err)
			}
			segs, n, err := ConvertJSONL(context.Background(), bytes.NewReader(src), w)
			if err != nil {
				t.Fatalf("seed=%d: ConvertJSONL: %v", seed, err)
			}
			if n != len(rows) {
				t.Fatalf("seed=%d: converted %d of %d samples", seed, n, len(rows))
			}
			if segs < 2 {
				t.Fatalf("seed=%d: only %d segments — the cut logic went unexercised", seed, segs)
			}

			r, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				var back bytes.Buffer
				m, err := WriteJSONL(context.Background(), r, &back, workers, nil)
				if err != nil {
					t.Fatalf("seed=%d workers=%d: WriteJSONL: %v", seed, workers, err)
				}
				if m != len(rows) {
					t.Errorf("seed=%d workers=%d: extracted %d of %d samples", seed, workers, m, len(rows))
				}
				if !bytes.Equal(back.Bytes(), want) {
					t.Fatalf("seed=%d workers=%d: jsonl→seg→jsonl is not byte-identical (%d vs %d bytes)",
						seed, workers, back.Len(), len(want))
				}
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// One group's day past DefaultMaxRows rows takes the safety cut: the
// import writes a full segment and a one-row segment, and the export
// returns the input bytes.
func TestConvertJSONLCutsAtMaxRows(t *testing.T) {
	rows := make([]sample.Sample, DefaultMaxRows+1)
	for i := range rows {
		rows[i] = sample.Sample{SessionID: uint64(i), PoP: "pop", Prefix: "10.0.0.0/24", Country: "PE"}
	}
	want := jsonlBytes(t, rows)
	dir := filepath.Join(t.TempDir(), "ds.seg")
	w, err := Create(dir, "max rows")
	if err != nil {
		t.Fatal(err)
	}
	segs, n, err := ConvertJSONL(context.Background(), bytes.NewReader(want), w)
	if err != nil || segs != 2 || n != len(rows) {
		t.Fatalf("ConvertJSONL = %d segments, %d samples, %v; want 2, %d", segs, n, err, len(rows))
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Manifest().Segments; got[0].Samples != DefaultMaxRows || got[1].Samples != 1 {
		t.Fatalf("segments hold %d and %d rows, want %d and 1", got[0].Samples, got[1].Samples, DefaultMaxRows)
	}
	var back bytes.Buffer
	if _, err := WriteJSONL(context.Background(), r, &back, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), want) {
		t.Fatalf("export is %d bytes, not the %d input bytes", back.Len(), len(want))
	}
}

// The import door is strict: a line that is not exactly one record
// fails the conversion and names the line.
func TestConvertJSONLBadInput(t *testing.T) {
	good := jsonlBytes(t, testSamples(t, 13, 2, 1))
	lines := strings.SplitAfter(strings.TrimSuffix(string(good), "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("fixture has only %d lines", len(lines))
	}
	record := strings.TrimSuffix(lines[0], "\n")
	for _, tc := range []struct {
		name, data, want string
	}{
		{"malformed first line", "{bad\n", "line 1: "},
		{"malformed third line", lines[0] + lines[1] + "{bad\n" + lines[3], "line 3: "},
		{"two records on one line", record + " " + record + "\n", "line 1: invalid character '{' after top-level value"},
	} {
		w, err := Create(filepath.Join(t.TempDir(), "ds.seg"), "test")
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = ConvertJSONL(context.Background(), strings.NewReader(tc.data), w)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

// cancelAt cancels a context once off bytes have been read through it,
// in reads short enough that the import is mid-file when it happens.
type cancelAt struct {
	r      io.Reader
	off    int
	cancel context.CancelFunc
}

func (c *cancelAt) Read(p []byte) (int, error) {
	n, err := c.r.Read(p[:min(len(p), 4096)])
	if c.off -= n; c.off <= 0 {
		c.cancel()
	}
	return n, err
}

// An interrupted import (segcat's SIGINT) stops at the next segment
// commit with the cause, and the manifest holds exactly the committed
// prefix: the dataset opens and extracts to a prefix of the input.
func TestConvertJSONLCancelled(t *testing.T) {
	rows := testSamples(t, 42, 9, 2)
	src := jsonlBytes(t, rows)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dir := filepath.Join(t.TempDir(), "ds.seg")
	w, err := Create(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	_, n, err := ConvertJSONL(ctx, &cancelAt{r: bytes.NewReader(src), off: len(src) / 2, cancel: cancel}, w)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n == 0 || n >= len(rows) {
		t.Fatalf("committed %d of %d samples; the cancel did not land mid-import", n, len(rows))
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("interrupted import is not readable: %v", err)
	}
	defer func() { _ = r.Close() }()
	if got := r.Manifest().TotalSamples(); got != n {
		t.Fatalf("manifest holds %d samples, ConvertJSONL reported %d committed", got, n)
	}
	var back bytes.Buffer
	if _, err := WriteJSONL(context.Background(), r, &back, 1, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(src, back.Bytes()) {
		t.Fatal("the committed segments are not a prefix of the input")
	}
}
