//go:build !race

// Under the race detector sync.Pool drops a quarter of what is put back,
// on purpose, so the count below is only exact without it.

package tdigest

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// Once a digest's buffers and centroid arrays have reached their sizes,
// Add allocates nothing — not in the buffering and not in the
// compaction every 8δ-th Add runs, whose scratch comes from the pool.
// Nor does a buffer holding -0, whose zeros the sort keeps in pooled
// scratch, nor Merge of compacted parts, whose centroids buffer as
// weighted points.
func TestSteadyStateAddAllocatesNothing(t *testing.T) {
	const cycle = 8 * DefaultCompression
	r := rng.New(20).Child("allocs")
	xs, zeros := make([]float64, cycle), make([]float64, cycle)
	for i := range xs {
		xs[i] = r.LogNormalMedian(40, 0.8)
		zeros[i] = [...]float64{xs[i], 0, math.Copysign(0, -1)}[r.IntN(3)]
	}
	// AllocsPerRun truncates, so each cycle must compact at least once:
	// the parts hold at least a buffer's worth of centroids.
	var parts []*TDigest
	for n := 0; n < cycle; {
		p := New(DefaultCompression)
		p.AddAll(xs[len(parts)%8*cycle/8:])
		p.Compact()
		parts, n = append(parts, p), n+len(p.means)
	}
	for _, c := range []struct {
		name string
		run  func(d *TDigest)
	}{
		{"unit", func(d *TDigest) {
			for _, x := range xs {
				d.Add(x)
			}
		}},
		{"-0", func(d *TDigest) {
			for _, x := range zeros {
				d.Add(x)
			}
		}},
		{"weighted", func(d *TDigest) {
			for _, p := range parts {
				d.Merge(p)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := New(DefaultCompression)
			for i := 0; i < 5; i++ {
				c.run(d)
			}
			if allocs := testing.AllocsPerRun(50, func() { c.run(d) }); allocs != 0 {
				t.Fatalf("%v allocations per cycle, want 0", allocs)
			}
		})
	}
}
