package segstore

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/sample"
)

// sameRows compares row slices treating empty and nil alike.
func sameRows(got, want []sample.Sample) bool {
	if len(got) != len(want) {
		return false
	}
	if len(got) == 0 {
		return true
	}
	return reflect.DeepEqual(got, want)
}

// AppendRows over a decoded batch must reproduce the encoded rows
// exactly, field for field.
func TestDecodeSegmentColumnsMatchesRows(t *testing.T) {
	for _, seed := range []uint64{5, 23} {
		rows := testSamples(t, seed, 7, 1)
		blob, meta := EncodeSegment(rows)

		b, err := DecodeSegmentColumns(blob)
		if err != nil {
			t.Fatalf("seed=%d: DecodeSegmentColumns: %v", seed, err)
		}
		if b.Len() != len(rows) || b.Len() != meta.Samples {
			t.Fatalf("seed=%d: batch has %d rows, want %d", seed, b.Len(), len(rows))
		}
		got := b.AppendRows(nil)
		if !reflect.DeepEqual(got, rows) {
			for i := range rows {
				if !reflect.DeepEqual(got[i], rows[i]) {
					t.Fatalf("seed=%d: row %d differs:\n got: %+v\nwant: %+v", seed, i, got[i], rows[i])
				}
			}
			t.Fatalf("seed=%d: materialized rows differ", seed)
		}

		// The derived hints must hold over the actual rows.
		var mn, mx int64
		sorted := true
		for i, r := range rows {
			v := int64(r.Start)
			if i == 0 || v < mn {
				mn = v
			}
			if i == 0 || v > mx {
				mx = v
			}
			if i > 0 && v < int64(rows[i-1].Start) {
				sorted = false
			}
		}
		if b.StartMin != mn || b.StartMax != mx || b.StartsSorted != sorted {
			t.Fatalf("seed=%d: hints (min=%d max=%d sorted=%v), rows say (%d, %d, %v)",
				seed, b.StartMin, b.StartMax, b.StartsSorted, mn, mx, sorted)
		}
	}
}

// ApplyColumns must keep exactly the rows the row predicate keeps, in
// order — the filter equivalence the byte-identical reports rest on.
func TestApplyColumnsMatchesApply(t *testing.T) {
	rows := testSamples(t, 9, 8, 1)
	day := 24 * time.Hour
	filters := []*Filter{
		nil,
		{},
		{From: 6 * time.Hour},
		{To: 12 * time.Hour},
		{From: 3 * time.Hour, To: 21 * time.Hour},
		{From: 2 * day}, // everything pruned
		{Countries: []string{rows[0].Country}},
		{PoPs: []string{rows[0].PoP, rows[len(rows)-1].PoP}},
		{Countries: []string{"ZZ"}},
		{From: 4 * time.Hour, Countries: []string{rows[len(rows)/2].Country}, PoPs: []string{rows[len(rows)/2].PoP}},
	}
	blob, _ := EncodeSegment(rows)
	for fi, f := range filters {
		want := f.Apply(append([]sample.Sample(nil), rows...))
		b, err := DecodeSegmentColumns(blob)
		if err != nil {
			t.Fatal(err)
		}
		f.ApplyColumns(b)
		got := b.AppendRows(nil)
		if !sameRows(got, want) {
			t.Fatalf("filter %d (%s): %d filtered rows, want %d (or rows differ)", fi, f, len(got), len(want))
		}
		// Start bounds stay valid over the survivors.
		for i, r := range got {
			if int64(r.Start) < b.StartMin || int64(r.Start) > b.StartMax {
				t.Fatalf("filter %d: row %d start %d outside [%d, %d]", fi, i, r.Start, b.StartMin, b.StartMax)
			}
		}
	}
}

// Slice views share the parent's arrays but carry their own row axis:
// concatenating the views' rows reproduces the parent, response spans
// included, and compacting one view never disturbs a sibling.
func TestColumnBatchSliceAndCompact(t *testing.T) {
	rows := testSamples(t, 13, 5, 1)
	blob, _ := EncodeSegment(rows)
	b, err := DecodeSegmentColumns(blob)
	if err != nil {
		t.Fatal(err)
	}
	n := b.Len()
	cuts := []int{0, n / 3, n / 3, 2 * n / 3, n} // includes an empty view
	var got []sample.Sample
	views := make([]*ColumnBatch, 0, len(cuts)-1)
	for i := 1; i < len(cuts); i++ {
		v := b.Slice(cuts[i-1], cuts[i])
		views = append(views, v)
		got = v.AppendRows(got)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatal("concatenated view rows differ from the parent's")
	}

	// Compact the middle view (views[2]; views[1] is the empty one) to
	// rows with AltIndex == 0; siblings and their response spans must be
	// untouched.
	mid := views[2]
	var wantMid []sample.Sample
	for _, r := range rows[cuts[2]:cuts[3]] {
		if r.AltIndex == 0 {
			wantMid = append(wantMid, r)
		}
	}
	if len(wantMid) == 0 || len(wantMid) == mid.Len() {
		t.Fatalf("degenerate compaction fixture: %d of %d rows survive", len(wantMid), mid.Len())
	}
	mid.Compact(func(i int) bool { return mid.AltIndex[i] == 0 })
	if gotMid := mid.AppendRows(nil); !sameRows(gotMid, wantMid) {
		t.Fatalf("compacted view has %d rows, want %d (or rows differ)", len(gotMid), len(wantMid))
	}
	if first := views[0].AppendRows(nil); !sameRows(first, rows[:cuts[1]]) {
		t.Fatal("compacting one view disturbed a sibling")
	}
	if last := views[3].AppendRows(nil); !sameRows(last, rows[cuts[3]:]) {
		t.Fatal("compacting one view disturbed the following sibling")
	}
	for _, v := range views {
		v.Release()
	}
	b.Release() // unpooled root: no-op by contract
}

// Randomized compaction property: Compact(keep) ≡ filtering the
// materialized rows with the same predicate, across many random keep
// sets (including all-drop and all-keep).
func TestColumnBatchCompactProperty(t *testing.T) {
	rows := testSamples(t, 31, 6, 1)
	blob, _ := EncodeSegment(rows)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		b, err := DecodeSegmentColumns(blob)
		if err != nil {
			t.Fatal(err)
		}
		keep := make([]bool, b.Len())
		switch trial {
		case 0: // all drop
		case 1:
			for i := range keep {
				keep[i] = true
			}
		default:
			for i := range keep {
				keep[i] = rng.Intn(3) > 0
			}
		}
		var want []sample.Sample
		for i, r := range rows {
			if keep[i] {
				want = append(want, r)
			}
		}
		if got := b.Compact(func(i int) bool { return keep[i] }); got != len(want) {
			t.Fatalf("trial %d: Compact returned %d, want %d", trial, got, len(want))
		}
		if got := b.AppendRows(nil); !sameRows(got, want) {
			t.Fatalf("trial %d: compacted rows differ (%d vs %d)", trial, len(got), len(want))
		}
	}
}

// KeyAt / KeyRunEnd / SingleKey agree with the row-level group keys.
func TestColumnBatchKeyDispatch(t *testing.T) {
	rows := testSamples(t, 17, 6, 1)
	blob, _ := EncodeSegment(rows)
	b, err := DecodeSegmentColumns(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if b.KeyAt(i) != rows[i].Key() {
			t.Fatalf("KeyAt(%d) = %v, want %v", i, b.KeyAt(i), rows[i].Key())
		}
	}
	for i := 0; i < b.Len(); {
		end := b.KeyRunEnd(i)
		if end <= i || end > b.Len() {
			t.Fatalf("KeyRunEnd(%d) = %d out of range", i, end)
		}
		for j := i; j < end; j++ {
			if rows[j].Key() != rows[i].Key() {
				t.Fatalf("run [%d,%d) mixes keys at %d", i, end, j)
			}
		}
		if end < b.Len() && rows[end].Key() == rows[i].Key() {
			t.Fatalf("KeyRunEnd(%d) = %d stopped short of the run end", i, end)
		}
		i = end
	}

	// A single-group segment proves itself through its dictionaries.
	oneKey := rows[:0:0]
	for _, r := range rows {
		if r.Key() == rows[0].Key() {
			oneKey = append(oneKey, r)
		}
	}
	oneBlob, _ := EncodeSegment(oneKey)
	ob, err := DecodeSegmentColumns(oneBlob)
	if err != nil {
		t.Fatal(err)
	}
	if key, ok := ob.SingleKey(); !ok || key != rows[0].Key() {
		t.Fatalf("SingleKey = (%v, %v), want (%v, true)", key, ok, rows[0].Key())
	}
	if _, ok := b.SingleKey(); ok && len(b.PoP.Dict)*len(b.Prefix.Dict)*len(b.Country.Dict) != 1 {
		t.Fatal("SingleKey claimed a multi-group batch")
	}
}

// EncodeSegment indexes the segment's prefixes, and a single-group
// manifest entry proves SingleGroup.
func TestSegmentMetaSingleGroup(t *testing.T) {
	rows := testSamples(t, 29, 4, 1)
	one := rows[:0:0]
	for _, r := range rows {
		if r.Key() == rows[0].Key() {
			one = append(one, r)
		}
	}
	_, meta := EncodeSegment(one)
	if len(meta.Prefixes) != 1 {
		t.Fatalf("meta.Prefixes = %v, want exactly the one prefix", meta.Prefixes)
	}
	if !meta.SingleGroup() {
		t.Fatalf("single-group segment not recognized: %+v", meta)
	}
	// Without the prefix index (older manifests) the proof must refuse.
	m2 := meta
	m2.Prefixes = nil
	if m2.SingleGroup() {
		t.Fatal("SingleGroup claimed without a prefix index")
	}
}
