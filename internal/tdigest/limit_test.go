package tdigest

import (
	"math"
	"testing"
)

// limitCompressions are the compressions the limit tests cover: the
// floor New clamps to, the repository's default, and a wide spread.
var limitCompressions = []float64{20, 50, 100, 200, 1000}

// limitQs returns n+1 evenly spaced quantiles over [0, 1], then
// geometric runs toward each end, where the square root of the estimate
// and the arcsine of the exact limit are steepest.
func limitQs(n int) []float64 {
	qs := make([]float64, 0, n+1+4*1100)
	for i := 0; i <= n; i++ {
		qs = append(qs, float64(i)/float64(n))
	}
	for e := 1.0; e < 1100; e++ {
		d := math.Pow(2, -e/16)
		qs = append(qs, d, 1-d, math.Nextafter(d, 0), math.Nextafter(1-d, 1))
	}
	return qs
}

// TestLimitEstimateError holds the estimate compact decides by to the
// exact k1 limit three orders of magnitude inside limitBand, so that a
// point outside the band is on the same side of both.
func TestLimitEstimateError(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 14
	}
	qs := limitQs(n)
	for _, delta := range limitCompressions {
		d := New(delta)
		sinC, cosC := math.Sincos(2 * math.Pi / delta)
		worst, worstQ := 0.0, 0.0
		for _, q := range qs {
			est, exact := limitEstimate(q, sinC, cosC), d.kInv(d.k(q)+1)
			if e := math.Abs(est - exact); !(e <= worst) {
				worst, worstQ = e, q
			}
		}
		if !(worst < limitBand/1e3) {
			t.Errorf("δ=%v: |estimate - exact| = %g at q=%v, want < %g", delta, worst, worstQ, limitBand/1e3)
		}
		t.Logf("δ=%v: worst |estimate - exact| = %.3g at q=%v over %d quantiles", delta, worst, worstQ, len(qs))
	}
}

// TestLimitBandTakesExactBranch builds digests whose second centroid
// meets a point whose projected quantile lies a few ulps either side of
// the exact k1 limit — inside limitBand, where compact must decide by
// the exact limit — and holds every compaction to processReference. The
// cases must include points the estimate alone would misjudge and points
// the exact limit closes, or the test could not catch a compaction that
// decides by the estimate alone or that merges whatever falls in the
// band.
func TestLimitBandTakesExactBranch(t *testing.T) {
	var inBand, misjudged, closes int
	for _, delta := range limitCompressions {
		sinC, cosC := math.Sincos(2 * math.Pi / delta)
		for i := 0; i < 200; i++ {
			// The first point closes its centroid alone at q = w0/total;
			// the second opens the next one, and the third's projected
			// quantile (w0 + w1 + w2) / total is set near that
			// centroid's limit. The tail point holds the rest.
			w0, w1, tail := 0.05+0.9*float64(i)/200, 1.0/1024, 1.0
			// A fixed point of w2 = L(w0/total)·total - w0 - w1, with
			// total = w0 + w1 + w2 + tail: the projected quantile then
			// lies within rounding of the limit.
			d, w2 := New(delta), 0.0
			for range 8 {
				total := w0 + w1 + w2 + tail
				w2 = d.kInv(d.k(w0/total)+1)*total - w0 - w1
			}
			for ulps := -24; ulps <= 24; ulps++ {
				w := w2
				for j := 0; j < ulps; j++ {
					w = math.Nextafter(w, math.Inf(1))
				}
				for j := 0; j > ulps; j-- {
					w = math.Nextafter(w, math.Inf(-1))
				}
				tw := newTwin(t, delta)
				for k, wt := range []float64{w0, w1, w, tail} {
					tw.add(float64(k), wt)
				}
				// Replay compact's arithmetic on this buffer.
				total := w0 + w1 + w + tail
				q := w0 / total
				projected := (w0 + w1 + w) / total
				exact := tw.ref.kInv(tw.ref.k(q) + 1)
				est := limitEstimate(q, sinC, cosC)
				tw.compact()
				if math.Abs(projected-est) > limitBand {
					continue
				}
				inBand++
				if (projected <= est) != (projected <= exact) {
					misjudged++
				}
				if projected > exact {
					closes++
				}
			}
		}
	}
	t.Logf("%d in-band cases: the estimate alone misjudges %d, the exact limit closes %d", inBand, misjudged, closes)
	if misjudged == 0 || closes == 0 {
		t.Fatalf("%d in-band cases, %d misjudged by the estimate, %d closed: the cases do not tell the branches apart", inBand, misjudged, closes)
	}
}
