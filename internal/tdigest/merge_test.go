package tdigest

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// empiricalRank returns the fraction of values ≤ x (values sorted).
func empiricalRank(sorted []float64, x float64) float64 {
	return float64(sort.SearchFloat64s(sorted, x)) / float64(len(sorted))
}

// Property: a digest assembled by merging k shard digests must agree
// with a single digest fed the same data — Count and Mean exactly,
// quantiles within the compression tolerance. This is the contract the
// sharded aggregation pipeline's deterministic merge rests on.
func TestMergePropertyQuantiles(t *testing.T) {
	distributions := []struct {
		name string
		draw func(r *rand.Rand) float64
	}{
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() * 100 }},
		{"lognormal", func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()) * 40 }},
		{"bimodal", func(r *rand.Rand) float64 {
			if r.Intn(2) == 0 {
				return 20 + r.NormFloat64()*2
			}
			return 80 + r.NormFloat64()*5
		}},
	}
	for _, dist := range distributions {
		for _, shards := range []int{2, 4, 16} {
			r := rand.New(rand.NewSource(42))
			const n = 50_000
			values := make([]float64, n)
			for i := range values {
				values[i] = dist.draw(r)
			}

			single := New(100)
			parts := make([]*TDigest, shards)
			for i := range parts {
				parts[i] = New(100)
			}
			for i, v := range values {
				single.Add(v)
				parts[i%shards].Add(v)
			}
			merged := New(100)
			for _, p := range parts {
				merged.Merge(p)
			}

			if got, want := merged.Count(), single.Count(); got != want {
				t.Errorf("%s/%d shards: merged count %v, want %v", dist.name, shards, got, want)
			}
			if got, want := merged.Mean(), single.Mean(); math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Errorf("%s/%d shards: merged mean %v, want %v", dist.name, shards, got, want)
			}
			if merged.Min() != single.Min() || merged.Max() != single.Max() {
				t.Errorf("%s/%d shards: merged min/max (%v,%v) want (%v,%v)",
					dist.name, shards, merged.Min(), merged.Max(), single.Min(), single.Max())
			}

			// Accuracy is asserted in rank space — Quantile(q) must land
			// at empirical rank ≈ q — which stays well-conditioned even
			// where the density has gaps (value-space comparison blows up
			// in the bimodal trough, where the CDF is flat). Merged
			// digests get twice the single-digest budget: re-merging
			// already-merged centroids coarsens resolution by about that.
			sorted := append([]float64(nil), values...)
			sort.Float64s(sorted)
			for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
				if r := empiricalRank(sorted, single.Quantile(q)); math.Abs(r-q) > 0.02 {
					t.Errorf("%s/%d shards: single q%.2f landed at rank %.4f", dist.name, shards, q, r)
				}
				if r := empiricalRank(sorted, merged.Quantile(q)); math.Abs(r-q) > 0.04 {
					t.Errorf("%s/%d shards: merged q%.2f landed at rank %.4f", dist.name, shards, q, r)
				}
			}
		}
	}
}

// Compact must not change any observable value, and must make reads
// pure (exercised for real by the race-detector tests in agg/study).
func TestCompactIsObservationallyIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := New(100)
	for i := 0; i < 10_000; i++ {
		d.Add(r.NormFloat64() * 10)
	}
	before := []float64{d.Count(), d.Quantile(0.5), d.Quantile(0.9), d.Mean(), d.Min(), d.Max()}
	d.Compact()
	d.Compact()
	after := []float64{d.Count(), d.Quantile(0.5), d.Quantile(0.9), d.Mean(), d.Min(), d.Max()}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("observable %d changed across Compact: %v -> %v", i, before[i], after[i])
		}
	}
}

// Merging an empty or nil digest must be a no-op.
func TestMergeEmptyAndNil(t *testing.T) {
	d := New(100)
	for i := 0; i < 100; i++ {
		d.Add(float64(i))
	}
	want := d.Quantile(0.5)
	d.Merge(New(100))
	d.Merge(nil)
	if got := d.Quantile(0.5); got != want {
		t.Fatalf("median changed after empty merges: %v -> %v", want, got)
	}
	if d.Count() != 100 {
		t.Fatalf("count = %v, want 100", d.Count())
	}
}

// Merge only reads its argument: centroids, buffered points (in arrival
// order, not sorted in place), totals and extremes are the same bits
// afterwards, so a digest that has been merged from compacts later at
// exactly the points, and to exactly the centroids, it would have
// anyway. analysis.Overview.Seal rests on this: it merges per-group
// digests that go on taking samples.
func TestMergeLeavesItsArgumentUntouched(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	bits := func(d *TDigest) []uint64 {
		var out []uint64
		for _, s := range [][]float64{d.means, d.weights, d.bufMeans, d.bufWeights, {d.total, d.bufTotal, d.min, d.max}} {
			out = append(out, uint64(len(s)))
			for _, v := range s {
				out = append(out, math.Float64bits(v))
			}
		}
		return out
	}
	// No centroids yet, a buffer short enough for the insertion sort, one
	// long enough for the radix sort, and nothing buffered at all.
	for _, adds := range []int{50, 800 + insertionCutoff/2, 3*800 + 500, 800} {
		arg, twin := New(100), New(100)
		for i := 0; i < adds; i++ {
			v := math.Round(r.NormFloat64()*10) / 2 // ties, out of order
			arg.Add(v)
			twin.Add(v)
		}
		before := bits(arg)
		into := New(100)
		into.Add(1)
		into.Merge(arg)
		if after := bits(arg); !slices.Equal(before, after) {
			t.Fatalf("%d adds: Merge changed its argument", adds)
		}
		// The receiver holds what merging a compacted copy gives.
		twin.Compact()
		want := New(100)
		want.Add(1)
		want.Merge(twin)
		if !slices.Equal(bits(into), bits(want)) {
			t.Fatalf("%d adds: merging a buffering digest and merging its compacted twin differ", adds)
		}
	}
}
