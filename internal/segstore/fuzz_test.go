package segstore

import (
	"errors"
	"testing"
)

// FuzzSegmentDecode throws arbitrary bytes at the segment decoder. The
// contract under fuzz: corrupt, truncated, or hostile input returns an
// error (or decodes cleanly when the mutation survived every CRC) —
// never a panic, and never an allocation driven by an unvalidated row
// or length field. Seeds cover valid segments (so mutations explore the
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

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeSegmentColumns(data)
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
