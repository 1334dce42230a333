package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/tdigest"
)

func TestZScore(t *testing.T) {
	tests := []struct {
		conf, want float64
	}{
		{0.95, 1.959964},
		{0.90, 1.644854},
		{0.99, 2.575829},
	}
	for _, tt := range tests {
		if got := ZScore(tt.conf); math.Abs(got-tt.want) > 1e-4 {
			t.Errorf("ZScore(%v) = %v, want %v", tt.conf, got, tt.want)
		}
	}
	if ZScore(0) != 0 {
		t.Error("ZScore(0) != 0")
	}
	if !math.IsInf(ZScore(1), 1) {
		t.Error("ZScore(1) not +Inf")
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, tt := range tests {
		if got := Quantile(data, tt.q); got != tt.want {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(empty) should be NaN")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	data := []float64{0, 10}
	if got := Quantile(data, 0.5); got != 5 {
		t.Errorf("Quantile interpolation = %v, want 5", got)
	}
}

func TestMedianCICoversTrueMedian(t *testing.T) {
	// Coverage test: the 95% CI should contain the true median (40)
	// in roughly 95% of repeated experiments.
	r := rng.New(11)
	covered, trials := 0, 400
	for trial := 0; trial < trials; trial++ {
		xs := make([]float64, 101)
		for i := range xs {
			xs[i] = r.LogNormalMedian(40, 0.5)
		}
		iv := MedianCI(SortCopy(xs), 0.95)
		if iv.Contains(40) {
			covered++
		}
	}
	rate := float64(covered) / float64(trials)
	if rate < 0.90 || rate > 0.995 {
		t.Errorf("median CI coverage = %v, want ~0.95", rate)
	}
}

func TestDiffMedianCICoversZeroForIdenticalDistributions(t *testing.T) {
	r := rng.New(13)
	covered, trials := 0, 300
	for trial := 0; trial < trials; trial++ {
		a := make([]float64, 80)
		b := make([]float64, 80)
		for i := range a {
			a[i] = r.LogNormalMedian(30, 0.4)
			b[i] = r.LogNormalMedian(30, 0.4)
		}
		iv := DiffMedianCI(SortCopy(a), SortCopy(b), 0.95)
		if iv.Contains(0) {
			covered++
		}
	}
	rate := float64(covered) / float64(trials)
	if rate < 0.90 {
		t.Errorf("diff-median CI coverage of 0 = %v, want ≥0.90", rate)
	}
}

func TestDiffMedianCIDetectsRealDifference(t *testing.T) {
	r := rng.New(17)
	detected, trials := 0, 200
	for trial := 0; trial < trials; trial++ {
		a := make([]float64, 100)
		b := make([]float64, 100)
		for i := range a {
			a[i] = r.LogNormalMedian(50, 0.2) // median 50
			b[i] = r.LogNormalMedian(30, 0.2) // median 30
		}
		iv := DiffMedianCI(SortCopy(a), SortCopy(b), 0.95)
		if iv.Lo > 5 { // paper's threshold style: lower bound above 5ms
			detected++
		}
	}
	if detected < trials*9/10 {
		t.Errorf("detected real 20ms difference only %d/%d times", detected, trials)
	}
}

func TestMedianVarianceShrinksWithN(t *testing.T) {
	r := rng.New(19)
	sizes := []int{31, 101, 1001}
	prev := math.Inf(1)
	for _, n := range sizes {
		// Average over trials: a single variance estimate is itself noisy.
		sum := 0.0
		const trials = 50
		for trial := 0; trial < trials; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = r.Normal(0, 1)
			}
			sum += MedianVariance(SortCopy(xs), 0.95)
		}
		v := sum / trials
		if v >= prev {
			t.Errorf("mean variance did not shrink: n=%d v=%v prev=%v", n, v, prev)
		}
		prev = v
	}
}

func TestMedianVarianceTinySample(t *testing.T) {
	if !math.IsInf(MedianVariance([]float64{1, 2}, 0.95), 1) {
		t.Error("variance of n=2 should be +Inf")
	}
}

func TestDigestAgreesWithExact(t *testing.T) {
	r := rng.New(23)
	xs := make([]float64, 5000)
	d := tdigest.New(200)
	for i := range xs {
		xs[i] = r.LogNormalMedian(40, 0.5)
		d.Add(xs[i])
	}
	sorted := SortCopy(xs)
	exact := MedianVariance(sorted, 0.95)
	approx := MedianVarianceDigest(d, 0.95)
	if math.Abs(exact-approx)/exact > 0.5 {
		t.Errorf("digest variance %v, exact %v", approx, exact)
	}
}

func TestCompareRequiresSamples(t *testing.T) {
	small := tdigest.New(100)
	big := tdigest.New(100)
	for i := 0; i < 100; i++ {
		big.Add(float64(i))
	}
	for i := 0; i < 10; i++ {
		small.Add(float64(i))
	}
	if c := Compare(small, big, 0.95, 10); c.Valid {
		t.Error("comparison with <30 samples must be invalid")
	}
	if c := Compare(nil, big, 0.95, 10); c.Valid {
		t.Error("nil comparison must be invalid")
	}
}

func TestCompareTightness(t *testing.T) {
	r := rng.New(29)
	a, b := tdigest.New(100), tdigest.New(100)
	for i := 0; i < 2000; i++ {
		a.Add(r.Normal(50, 2))
		b.Add(r.Normal(45, 2))
	}
	c := Compare(a, b, 0.95, 10)
	if !c.Valid {
		t.Fatalf("large-sample comparison should be valid: %+v", c)
	}
	// Very tight maxWidth invalidates.
	if c2 := Compare(a, b, 0.95, 1e-9); c2.Valid {
		t.Error("impossibly tight maxWidth should invalidate")
	}
}

func TestWeightedCDF(t *testing.T) {
	w := NewWeightedCDF([]WeightedPoint{
		{Value: 1, Weight: 1},
		{Value: 2, Weight: 1},
		{Value: 3, Weight: 2},
	})
	if got := w.Total(); got != 4 {
		t.Errorf("Total = %v", got)
	}
	if got := w.FractionAtOrBelow(2); got != 0.5 {
		t.Errorf("FractionAtOrBelow(2) = %v, want 0.5", got)
	}
	if got := w.FractionAbove(2); got != 0.5 {
		t.Errorf("FractionAbove(2) = %v, want 0.5", got)
	}
	if got := w.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) = %v, want 2", got)
	}
	if got := w.Quantile(0.9); got != 3 {
		t.Errorf("Quantile(0.9) = %v, want 3", got)
	}
	if got := w.Mean(); got != 2.25 {
		t.Errorf("Mean = %v, want 2.25", got)
	}
}

func TestWeightedCDFDropsBadPoints(t *testing.T) {
	w := NewWeightedCDF([]WeightedPoint{
		{Value: 1, Weight: 0},
		{Value: math.NaN(), Weight: 5},
		{Value: 2, Weight: 1},
	})
	if w.Total() != 1 {
		t.Errorf("Total = %v, want 1", w.Total())
	}
}

func TestWeightedCDFEmpty(t *testing.T) {
	w := NewWeightedCDF(nil)
	if !math.IsNaN(w.FractionAtOrBelow(1)) || !math.IsNaN(w.Quantile(0.5)) || !math.IsNaN(w.Mean()) {
		t.Error("empty weighted CDF should return NaN")
	}
}

func TestWeightedCDFQuantileMonotonic(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		pts := make([]WeightedPoint, 50)
		for i := range pts {
			pts[i] = WeightedPoint{Value: r.Normal(0, 10), Weight: r.Float64() + 0.01}
		}
		w := NewWeightedCDF(pts)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := w.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSeries(t *testing.T) {
	w := NewWeightedCDF([]WeightedPoint{{Value: 1, Weight: 1}, {Value: 10, Weight: 1}})
	s := w.Series(5)
	if len(s) != 5 {
		t.Fatalf("Series(5) len = %d", len(s))
	}
	if s[0].Value != 1 || s[4].Value != 10 {
		t.Errorf("series endpoints wrong: %+v", s)
	}
}

func TestHodgesLehmannDetectsShift(t *testing.T) {
	r := rng.New(41)
	a := make([]float64, 300)
	b := make([]float64, 300)
	for i := range a {
		a[i] = r.LogNormalMedian(50, 0.3)
		b[i] = r.LogNormalMedian(40, 0.3)
	}
	shift := HodgesLehmannShift(a, b)
	if shift < 6 || shift > 14 {
		t.Errorf("HL shift = %v, want ~10", shift)
	}
}

func TestHodgesLehmannRobustToOutliers(t *testing.T) {
	r := rng.New(43)
	a := make([]float64, 200)
	b := make([]float64, 200)
	var meanA, meanB float64
	for i := range a {
		a[i] = r.Normal(40, 2)
		b[i] = r.Normal(40, 2)
		if i%50 == 0 {
			a[i] = 5000 // bufferbloat-scale outliers on one side
		}
		meanA += a[i]
		meanB += b[i]
	}
	meanDiff := (meanA - meanB) / 200
	hl := HodgesLehmannShift(a, b)
	if math.Abs(hl) > 1.5 {
		t.Errorf("HL shift = %v, want ~0 despite outliers", hl)
	}
	if math.Abs(meanDiff) < 10 {
		t.Fatalf("test fixture broken: mean diff %v should be skewed", meanDiff)
	}
}

func TestHodgesLehmannEmpty(t *testing.T) {
	if !math.IsNaN(HodgesLehmannShift(nil, []float64{1})) {
		t.Error("empty input should be NaN")
	}
}

func TestHodgesLehmannLargeInputsSubsampled(t *testing.T) {
	r := rng.New(47)
	a := make([]float64, 5000)
	b := make([]float64, 5000)
	for i := range a {
		a[i] = r.Normal(10, 1)
		b[i] = r.Normal(7, 1)
	}
	shift := HodgesLehmannShift(a, b)
	if shift < 2.7 || shift > 3.3 {
		t.Errorf("subsampled HL shift = %v, want ~3", shift)
	}
}
