//go:build !race

// The race detector's runtime allocates on its own account, so the
// counts below are only exact without it.

package analysis

import (
	"runtime"
	"testing"

	"repro/internal/agg"
)

// A group is known to have a baseline before any point is built for it:
// over a store where no window reaches the sample floor (live_serve's
// shape: 4 sessions a window) Degradation allocates per call and per
// group — the group list, each group's window indexes at 8 bytes a
// window — and no per-window state: forty times the windows cost not one
// allocation more, and nowhere near a Point's 56 bytes each. The window
// index is the group's own now, so not even its 8 bytes.
//
// An extension owes the history nothing at all: a day added to thirty
// costs what a day added to one does — not a byte a window of history
// below the floor, and allocation for allocation where there are points to append (§6.2 over
// the same cells: the appended day may outgrow the points' array, which
// is one allocation however long the array).
func TestDegradationBelowTheFloorAllocatesNothingPerWindow(t *testing.T) {
	const groups, runs = 2, 20
	measure := func(windows int) (mallocs, bytes uint64) {
		st := agg.NewStore()
		for win := 0; win < windows; win++ {
			cell(st, "10.6.0.0/24", win, 0, 4, 30, 4, 4)
			cell(st, "10.6.1.0/24", win, 0, 4, 30, 4, 4)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if res := Degradation(st, MetricHDratio); len(res.Groups) != 0 || res.TotalBytes != 0 {
				t.Fatalf("%d groups, %d bytes from a store with no baseline", len(res.Groups), res.TotalBytes)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	fewN, fewB := measure(10)
	manyN, manyB := measure(400)
	if manyN != fewN {
		t.Errorf("%d allocations over 400 windows a group, %d over 10: something is allocated per window", manyN, fewN)
	}
	if perWindow := (float64(manyB) - float64(fewB)) / (390 * groups); perWindow > 1 {
		t.Errorf("%.1f bytes allocated per window (want none)", perWindow)
	}

	day := func(st *agg.Store, d int) {
		for win := 96 * d; win < 96*(d+1); win++ {
			cell(st, "10.6.0.0/24", win, 0, 4, 30, 4, 4)
			cell(st, "10.6.0.0/24", win, 1, 4, 28, 4, 4)
			cell(st, "10.6.1.0/24", win, 0, 4, 30, 4, 4)
		}
	}
	extendByADay := func(history int) (degN, degB, oppN uint64) {
		st := agg.NewStore()
		for d := 0; d < history; d++ {
			day(st, d)
		}
		deg, opp := Degradation(st, MetricHDratio), Opportunity(st, MetricHDratio)
		day(st, history)
		var m [3]runtime.MemStats
		runtime.ReadMemStats(&m[0])
		for i := 0; i < runs; i++ {
			if res := deg.Extend(st); len(res.Groups) != 0 || res.Compared != 0 {
				t.Fatalf("%d groups, %d points compared over a store with no baseline", len(res.Groups), res.Compared)
			}
		}
		runtime.ReadMemStats(&m[1])
		for i := 0; i < runs; i++ {
			if res := opp.Extend(st); res.Compared != 96 || len(res.Groups[0].Points) != 96*(history+1) {
				t.Fatalf("compared %d points and lists %d, %d days on", res.Compared, len(res.Groups[0].Points), history)
			}
		}
		runtime.ReadMemStats(&m[2])
		return (m[1].Mallocs - m[0].Mallocs) / runs, (m[1].TotalAlloc - m[0].TotalAlloc) / runs, (m[2].Mallocs - m[1].Mallocs) / runs
	}
	degN1, degB1, oppN1 := extendByADay(1)
	degN30, degB30, oppN30 := extendByADay(30)
	if perWindow := (float64(degB30) - float64(degB1)) / (29 * 96 * groups); degN30 != degN1 || perWindow > 1 {
		t.Errorf("§5 extended by a day: %d allocations, %d bytes over 30 days; %d, %d over one", degN30, degB30, degN1, degB1)
	}
	if oppN30 != oppN1 {
		t.Errorf("§6.2 extended by a day: %d allocations over 30 days, %d over one", oppN30, oppN1)
	}
}
