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
// allocation more, and nowhere near a Point's 56 bytes each.
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
	if perWindow := float64(manyB-fewB) / (390 * groups); perWindow > 16 {
		t.Errorf("%.1f bytes allocated per window (want the window index's 8, rounded up by a size class)", perWindow)
	}
}
