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

// What a digest merged the way analysis.Overview.Seal merges can be
// trusted to: k accumulators of Zipf-unequal size (accumulator i takes a
// value with probability ∝ 1/(i+1), as user groups carry unequal
// traffic), each fed by Add and still holding its buffer, merged in
// order into an empty digest of the same compression — at k = 8, 25 and
// 120 and δ = 100 and 200 (the overview's per-PoP, per-continent and
// global digests; its three headline digests run at 200) — against exact
// sorted data at n = 10^5, read as TestRankErrorBound reads but at every
// twentieth from p5 to p95, so that some reads land where a digest is
// weakest: at the edge of an atom and between two modes.
//
// The shapes are TestRankErrorBound's, with one difference: each
// accumulator's MinRTT has its own median (10-150 ms) and a narrow
// spread, as each user group's does, so the union has modes with thin
// stretches between them, and a read that lands in one is interpolated
// across it. On the canonical report's corpus that is where the largest
// errors are — a PoP's median MinRTT reads up to 0.016 of rank off at
// δ = 100, under the old definition of the overview and under this one
// (EXPERIMENTS.md, "The overview as a merge").
//
// The bounds, each a multiple of one centroid of the k1 scale at q,
// 2π/δ * sqrt(q(1-q)) (0.031 at the median and 0.014 at p95 for δ = 100,
// half that at 200). Continuous values: one centroid; measured, the
// worst of the 228 reads is 0.28 of one. Atoms: two centroids, half a
// centroid more than TestRankErrorBound allows a digest fed by Add;
// measured, the worst is 1.8 — Quantile(0.35) of the HDratio shape at
// δ = 100, which reads 3e-5 where the atom at zero runs to rank 0.405:
// the value is right to four places and the rank is 0.054 early. At
// TestRankErrorBound's own four read points every merged read is inside
// its one and a half.
func TestRankErrorMergedFromAccumulators(t *testing.T) {
	const n = 100_000
	worst := map[bool]float64{} // by "continuous": the largest error, in bounds
	for _, compression := range []float64{100, 200} {
		for _, k := range []int{8, 25, 120} {
			for _, sh := range shapes[:3] {
				continuous := sh.name == "minrtt"
				r := rng.ChildAt(21, "accumulators-"+sh.name, k*1000+int(compression))
				cum, medians := make([]float64, k), make([]float64, k)
				for i := range cum {
					cum[i] = 1 / float64(i+1)
					if i > 0 {
						cum[i] += cum[i-1]
					}
					medians[i] = r.Uniform(10, 150)
				}
				parts := make([]*TDigest, k)
				for i := range parts {
					parts[i] = New(compression)
				}
				values := make([]float64, n)
				for i := range values {
					p := sort.SearchFloat64s(cum, r.Float64()*cum[k-1])
					values[i] = sh.draw(r)
					if continuous {
						values[i] = r.LogNormalMedian(medians[p], 0.15)
					}
					parts[p].Add(values[i])
				}
				merged := New(compression)
				for _, p := range parts {
					merged.Merge(p)
				}
				sorted := append([]float64(nil), values...)
				sort.Float64s(sorted)

				for q := 0.05; q < 0.96; q += 0.05 {
					bound := 2 * math.Pi / compression * math.Sqrt(q*(1-q))
					if !continuous {
						bound *= 2
					}
					exact := sorted[int(q*n)]
					next := sort.Search(n, func(i int) bool { return sorted[i] > exact })
					between, atOrBelow := exact, float64(next)/n
					if next < n {
						between = (exact + sorted[next]) / 2
					}
					eq := rankError(sorted, q, merged.Quantile(q))
					ec := math.Abs(merged.CDF(between) - atOrBelow)
					worst[continuous] = max(worst[continuous], eq/bound, ec/bound)
					if eq > bound {
						t.Errorf("%s, %d accumulators, δ=%v: Quantile(%v) = %v is %.4f of rank off, bound %.4f", sh.name, k, compression, q, merged.Quantile(q), eq, bound)
					}
					if ec > bound {
						t.Errorf("%s, %d accumulators, δ=%v: CDF(%v) = %.4f, exactly %.4f: %.4f off, bound %.4f", sh.name, k, compression, between, merged.CDF(between), atOrBelow, ec, bound)
					}
				}
			}
		}
	}
	t.Logf("worst read, as a share of its bound: continuous %.2f, atoms %.2f", worst[true], worst[false])
}
