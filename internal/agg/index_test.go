package agg

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/segstore"
)

// indexesAndCellsHold holds every series' window index to the sorted keys
// of its Windows map, and the store's cell count to a walk of the cells.
func indexesAndCellsHold(t *testing.T, st *Store, when string) {
	t.Helper()
	cells := 0
	for _, g := range st.Groups() {
		want := make([]int, 0, len(g.Windows))
		for w, wa := range g.Windows {
			want = append(want, w)
			cells += len(wa.Routes)
		}
		sort.Ints(want)
		got := g.wins // the kept index itself: WindowIndexes would rebuild a short one
		if len(got) != len(want) {
			t.Fatalf("%s: %s: index holds %d windows, the map %d", when, g.Key, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: %s: index %v, sorted keys %v", when, g.Key, got, want)
			}
		}
	}
	if st.Cells() != cells {
		t.Fatalf("%s: Cells() = %d, a walk counts %d", when, st.Cells(), cells)
	}
}

// Whatever opens a window — Add, AddBatch's runs, a merge adopting a
// window or a whole series — keeps the group's window index equal to the
// sorted keys of its Windows map, and whatever opens, adopts or withdraws
// a route cell keeps Cells equal to a walk: over random interleavings of
// the four, with windows arriving in no order.
func TestWindowIndexAndCellCountUnderRandomInterleavings(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		r := rng.ChildAt(11, "interleave", trial)
		st := NewStore()
		for step := 0; step < 60; step++ {
			// A handful of samples over few groups and windows, so that
			// stores overlap in groups, windows and routes.
			var rows []sample.Sample
			for i, n := 0, 1+r.IntN(12); i < n; i++ {
				rows = append(rows, mergeSample(r, r.IntN(6), r.IntN(40)))
			}
			switch op := r.IntN(4); op {
			case 0:
				for _, s := range rows {
					st.Add(s)
				}
			case 1:
				blob, _ := segstore.EncodeSegment(rows)
				b, err := segstore.DecodeSegmentColumns(blob)
				if err != nil {
					t.Fatal(err)
				}
				st.AddBatch(b)
				b.Release()
			case 2:
				other := NewStore()
				for _, s := range rows {
					other.Add(s)
				}
				st.Merge(other)
			case 3:
				st.Remove(rows[0].Key())
			}
			indexesAndCellsHold(t, st, fmt.Sprintf("trial %d step %d", trial, step))
		}
		if st.Len() == 0 || st.Cells() == 0 {
			t.Fatalf("trial %d ended on an empty store", trial)
		}
	}
}

// WindowIndexes hands out the kept index: no allocation, no sort, on a
// store built through any ingest path. A Windows map filled by hand is
// indexed on first use.
func TestWindowIndexesAllocatesNothing(t *testing.T) {
	st := NewStore()
	r := rng.New(3)
	for win := 0; win < 200; win++ {
		st.Add(mergeSample(r, 0, (win*7)%200))
	}
	g := st.Groups()[0]
	if n := testing.AllocsPerRun(100, func() {
		if len(g.WindowIndexes()) != 200 {
			t.Fatal("index lost windows")
		}
	}); n != 0 {
		t.Errorf("WindowIndexes allocates %v times a call on a built store", n)
	}

	byHand := &GroupSeries{Windows: map[int]*WindowAgg{9: {}, 2: {}, 5: {}}}
	if got := byHand.WindowIndexes(); len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 9 {
		t.Errorf("a hand-filled series indexes as %v, want [2 5 9]", got)
	}
	byHand.open(4, &WindowAgg{})
	if got := byHand.WindowIndexes(); len(got) != 4 || got[1] != 4 {
		t.Errorf("after opening window 4: %v, want [2 4 5 9]", got)
	}
}
