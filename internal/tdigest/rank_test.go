package tdigest

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// rankError is how far q lies from the ranks the exact data gives x:
// zero anywhere in [P(X < x), P(X <= x)] — on an atom, the atom's whole
// share — and the distance to that interval outside it.
func rankError(sorted []float64, q, x float64) float64 {
	n := float64(len(sorted))
	below := float64(sort.SearchFloat64s(sorted, x)) / n
	atOrBelow := float64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > x })) / n
	return max(0, below-q, q-atOrBelow)
}

// The rank error of the digest's two reads, against exact sorted data at
// n = 10^5 and the default compression, for the three shapes of value
// the report reads digests of, each fed by Add and by Merge of 256
// compacted parts (what a per-segment overview would do).
//
// Quantile(q) is held to rankError; CDF(x) is read halfway between the
// exact q-quantile and the next larger value present — how the report
// reads a digest of atoms (txns < 5 as CDF(4.5)) — and held to
// |CDF(x) - P(X <= x)|.
//
// The bounds. Continuous values (MinRTT): 0.002 of rank; measured, the
// worst of the sixteen reads is 0.0007. Atoms (HDratio, transaction
// counts): one and a half centroids of the k1 scale at q,
// 1.5 * 2π/δ * sqrt(q(1-q)), which is 0.041 at p25 and 0.047 at p50 for
// δ = 100. A read that lands between two centroid means is interpolated
// between them, and the centroids on either side of a boundary between
// two atoms can each hold points of both, so a read can leave an atom up
// to that far, in rank, before the atom's mass ends: measured, p25 of
// the transaction counts (the value 2, ranks 0.15 to 0.28) reads 2.003,
// 0.035 of rank early, and CDF just above the HDratio atom at zero reads
// 0.010 low. That is the error a count beside the digest removes
// (Overview.HDZero) and a digest read across an atom has.
func TestRankErrorBound(t *testing.T) {
	const n, parts = 100_000, 256
	const compression = DefaultCompression
	for _, sh := range shapes[:3] {
		r := rng.New(20).Child("rank-" + sh.name)
		values := make([]float64, n)
		added, merged, part := New(compression), New(compression), New(compression)
		for i := range values {
			values[i] = sh.draw(r)
			added.Add(values[i])
			part.Add(values[i])
			if (i+1)%(n/parts) == 0 || i == n-1 {
				part.Compact()
				merged.Merge(part)
				part = New(compression)
			}
		}
		sorted := append([]float64(nil), values...)
		sort.Float64s(sorted)

		for _, q := range []float64{0.25, 0.5, 0.75, 0.95} {
			bound := 0.002
			if sh.name != "minrtt" {
				bound = 1.5 * 2 * math.Pi / compression * math.Sqrt(q*(1-q))
			}
			exact := sorted[int(q*n)]
			next := sort.Search(n, func(i int) bool { return sorted[i] > exact })
			between, atOrBelow := exact, float64(next)/n
			if next < n {
				between = (exact + sorted[next]) / 2
			}
			for _, d := range []struct {
				fed string
				*TDigest
			}{{"Add", added}, {"Merge of 256 parts", merged}} {
				if e := rankError(sorted, q, d.Quantile(q)); e > bound {
					t.Errorf("%s by %s: Quantile(%v) = %v is %.4f of rank off, bound %.4f", sh.name, d.fed, q, d.Quantile(q), e, bound)
				}
				if e := math.Abs(d.CDF(between) - atOrBelow); e > bound {
					t.Errorf("%s by %s: CDF(%v) = %.4f, exactly %.4f: %.4f off, bound %.4f", sh.name, d.fed, between, d.CDF(between), atOrBelow, e, bound)
				}
			}
		}
	}
}
