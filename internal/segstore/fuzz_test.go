package segstore

import (
	"errors"
	"sync"
	"testing"
)

// FuzzSegmentDecode throws arbitrary bytes at the segment decoder. The
// contract under fuzz: corrupt, truncated, or hostile input returns an
// error (or decodes cleanly when the mutation survived every CRC) —
// never a panic, never an allocation driven by an unvalidated row or
// length field, and never a pooled batch left outstanding. Seeds cover valid segments (so mutations explore the
// deep decode paths), truncations, and a corpus of hostile headers.
func FuzzSegmentDecode(f *testing.F) {
	rows := testSamples(f, 21, 3, 1)
	valid, _ := EncodeSegment(rows)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:9])
	empty, _ := EncodeSegment(nil)
	f.Add(empty)
	f.Add([]byte("EDGESEG1"))
	// Hostile header: plausible magic+version with a huge row count.
	f.Add(append(append([]byte{}, valid[:9]...), 0xff, 0xff, 0xff, 0xff, 0x7f))
	f.Add([]byte{})

	var pool sync.Pool
	f.Fuzz(func(t *testing.T, data []byte) {
		// The pooled decode a scan runs must agree with the fresh one and
		// give back every batch it takes: on a decode error, on a row count
		// other than the manifest's, and on the caller's release.
		start, _ := LeakStats()
		defer func() {
			if out, _ := LeakStats(); out != start {
				t.Fatalf("pooled decode left %d batches outstanding, want %d", out, start)
			}
		}()
		b, err := DecodeSegmentColumns(data)
		rows := 0
		if err == nil {
			rows = b.Len()
		}
		if pb, perr := decodePooled(&pool, data, rows); (perr == nil) != (err == nil) {
			t.Fatalf("pooled decode error %v, fresh decode error %v", perr, err)
		} else if perr == nil {
			pb.Release()
		}
		if _, perr := decodePooled(&pool, data, rows+1); !errors.Is(perr, ErrCorrupt) {
			t.Fatalf("pooled decode against a wrong row count: error %v, want ErrCorrupt", perr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		// A successful decode must be internally consistent.
		if got := b.AppendRows(nil); len(got) != b.Len() {
			t.Fatalf("batch materializes %d rows, Len says %d", len(got), b.Len())
		}
	})
}
