//go:build !race

// Under the race detector sync.Pool drops a quarter of what is put back,
// on purpose, so the count below is only exact without it.

package tdigest

import (
	"testing"

	"repro/internal/rng"
)

// Once a digest's buffers and centroid arrays have reached their sizes,
// Add allocates nothing — not in the buffering and not in the
// compaction every 8δ-th Add runs, whose scratch comes from the pool.
func TestSteadyStateAddAllocatesNothing(t *testing.T) {
	const cycle = 8 * DefaultCompression
	r := rng.New(20).Child("allocs")
	xs := make([]float64, cycle)
	for i := range xs {
		xs[i] = r.LogNormalMedian(40, 0.8)
	}
	d := New(DefaultCompression)
	for i := 0; i < 5; i++ {
		d.AddAll(xs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		for _, x := range xs {
			d.Add(x)
		}
	}); allocs != 0 {
		t.Fatalf("%v allocations per %d Adds (one compaction), want 0", allocs, cycle)
	}
}
