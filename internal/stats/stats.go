// Package stats implements the statistical machinery of §3.4: exact
// quantiles, distribution-free confidence intervals for medians and for
// differences of medians (Price & Bonett 2002), and weighted CDFs used
// when reporting results weighted by traffic volume (§3.3).
//
// The paper compares aggregations (baseline vs current window, preferred
// vs best alternate route) by computing the difference of medians and a
// 95% confidence interval of that difference without assuming normality.
// A comparison is only considered valid when both sides have at least
// MinSamples measurements and the interval is "tight" (§3.4.1).
package stats

import (
	"math"
	"sort"
)

// MinSamples is the minimum aggregation size the paper requires before a
// comparison is considered at all (§3.4.1).
const MinSamples = 30

// DefaultConfidence is the paper's confidence level (α = 0.95).
const DefaultConfidence = 0.95

// ZScore returns the standard normal quantile for the two-sided
// confidence level conf, e.g. ZScore(0.95) ≈ 1.96.
func ZScore(conf float64) float64 {
	if conf <= 0 {
		return 0
	}
	if conf >= 1 {
		return math.Inf(1)
	}
	p := (1 + conf) / 2
	return math.Sqrt2 * math.Erfinv(2*p-1)
}

// Quantile returns the q-th quantile of sorted (ascending) data using
// linear interpolation between order statistics. Returns NaN if empty.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= n {
		return sorted[n-1]
	}
	return sorted[i] + (sorted[i+1]-sorted[i])*frac
}

// Median returns the median of sorted data.
func Median(sorted []float64) float64 { return Quantile(sorted, 0.5) }

// SortCopy returns an ascending-sorted copy of xs.
func SortCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// MedianVariance estimates the variance of the sample median using the
// McKean–Schrader order-statistic estimator that Price & Bonett build on:
// the distance between the order statistics at ranks (n+1)/2 ± z√(n)/2
// spans roughly 2z standard errors of the median.
func MedianVariance(sorted []float64, conf float64) float64 {
	n := len(sorted)
	if n < 3 {
		return math.Inf(1)
	}
	z := ZScore(conf)
	c := int(math.Round(float64(n+1)/2 - z*math.Sqrt(float64(n))/2))
	if c < 1 {
		c = 1
	}
	upper := n - c // 0-based index of X_(n-c+1)
	lower := c - 1 // 0-based index of X_(c)
	if upper <= lower {
		upper = lower + 1
		if upper >= n {
			return math.Inf(1)
		}
	}
	se := (sorted[upper] - sorted[lower]) / (2 * z)
	return se * se
}

// Interval is a confidence interval around a point estimate.
type Interval struct {
	Point float64
	Lo    float64
	Hi    float64
}

// Width returns Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether x lies inside the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// MedianCI returns a distribution-free confidence interval for the
// median of sorted data, via the McKean–Schrader standard error.
func MedianCI(sorted []float64, conf float64) Interval {
	m := Median(sorted)
	v := MedianVariance(sorted, conf)
	if math.IsInf(v, 1) {
		return Interval{Point: m, Lo: math.Inf(-1), Hi: math.Inf(1)}
	}
	z := ZScore(conf)
	se := math.Sqrt(v)
	return Interval{Point: m, Lo: m - z*se, Hi: m + z*se}
}

// DiffMedianCI returns the Price–Bonett distribution-free confidence
// interval for median(a) − median(b). Inputs must be sorted ascending.
func DiffMedianCI(a, b []float64, conf float64) Interval {
	diff := Median(a) - Median(b)
	va := MedianVariance(a, conf)
	vb := MedianVariance(b, conf)
	if math.IsInf(va, 1) || math.IsInf(vb, 1) {
		return Interval{Point: diff, Lo: math.Inf(-1), Hi: math.Inf(1)}
	}
	z := ZScore(conf)
	se := math.Sqrt(va + vb)
	return Interval{Point: diff, Lo: diff - z*se, Hi: diff + z*se}
}

// QuantileSource is any sketch that can answer quantile queries —
// satisfied by *tdigest.TDigest — so comparisons can run on streaming
// aggregations without retaining raw samples.
type QuantileSource interface {
	Quantile(q float64) float64
	Count() float64
}

// Exactly is the sketch of a known value — a group's baseline, say:
// every quantile is the value, it is never short of samples, and its
// median has no variance. Comparing a sketch against one is §3.4 with
// the interval coming from the sketch's side alone.
type Exactly float64

// Quantile returns the value.
func (x Exactly) Quantile(float64) float64 { return float64(x) }

// Count returns +Inf: no sample floor stops a known value.
func (Exactly) Count() float64 { return math.Inf(1) }

// MedianVarianceDigest estimates median variance from a quantile sketch
// by evaluating the sketch at the McKean–Schrader rank positions.
func MedianVarianceDigest(d QuantileSource, conf float64) float64 {
	n := d.Count()
	if n < 3 {
		return math.Inf(1)
	}
	if math.IsInf(n, 1) {
		return 0 // a known value (Exactly): the rank positions below are Inf/Inf
	}
	z := ZScore(conf)
	c := math.Round((n+1)/2 - z*math.Sqrt(n)/2)
	if c < 1 {
		c = 1
	}
	qLo := (c - 1) / (n - 1)
	qHi := (n - c) / (n - 1)
	if qHi <= qLo {
		return math.Inf(1)
	}
	se := (d.Quantile(qHi) - d.Quantile(qLo)) / (2 * z)
	return se * se
}

// DiffMedianCIDigest is DiffMedianCI computed from two quantile sketches.
func DiffMedianCIDigest(a, b QuantileSource, conf float64) Interval {
	diff := a.Quantile(0.5) - b.Quantile(0.5)
	va := MedianVarianceDigest(a, conf)
	vb := MedianVarianceDigest(b, conf)
	if math.IsInf(va, 1) || math.IsInf(vb, 1) {
		return Interval{Point: diff, Lo: math.Inf(-1), Hi: math.Inf(1)}
	}
	z := ZScore(conf)
	se := math.Sqrt(va + vb)
	return Interval{Point: diff, Lo: diff - z*se, Hi: diff + z*se}
}

// Comparison is the outcome of comparing two aggregations per §3.4: the
// difference of medians, its confidence interval, and whether the
// comparison is valid for analysis (enough samples, tight interval).
type Comparison struct {
	Interval
	// Valid is true when both sides had ≥ MinSamples and the interval
	// width is below the tightness threshold for the metric.
	Valid bool
}

// Compare runs the paper's comparison recipe on two sketches: it
// requires MinSamples on both sides and a confidence interval narrower
// than maxWidth (10 ms for MinRTTP50, 0.1 for HDratioP50 in the paper).
func Compare(a, b QuantileSource, conf, maxWidth float64) Comparison {
	if a == nil || b == nil || a.Count() < MinSamples || b.Count() < MinSamples {
		return Comparison{Interval: Interval{Point: math.NaN(), Lo: math.Inf(-1), Hi: math.Inf(1)}}
	}
	iv := DiffMedianCIDigest(a, b, conf)
	valid := !math.IsInf(iv.Lo, -1) && !math.IsInf(iv.Hi, 1) && iv.Width() <= maxWidth
	return Comparison{Interval: iv, Valid: valid}
}

// WeightedPoint is a (value, weight) observation for traffic-weighted
// distributions (§3.3 weights results by session traffic volume).
type WeightedPoint struct {
	Value  float64
	Weight float64
}

// WeightedCDF is an empirical CDF over weighted points.
type WeightedCDF struct {
	pts   []WeightedPoint
	total float64
}

// NewWeightedCDF builds a CDF; points with non-positive weight are
// dropped. The input slice is not retained.
func NewWeightedCDF(pts []WeightedPoint) *WeightedCDF {
	kept := make([]WeightedPoint, 0, len(pts))
	total := 0.0
	for _, p := range pts {
		if p.Weight > 0 && !math.IsNaN(p.Value) {
			kept = append(kept, p)
			total += p.Weight
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Value < kept[j].Value })
	return &WeightedCDF{pts: kept, total: total}
}

// Total returns the total weight.
func (w *WeightedCDF) Total() float64 { return w.total }

// FractionAtOrBelow returns the weight fraction with Value ≤ x.
func (w *WeightedCDF) FractionAtOrBelow(x float64) float64 {
	if w.total == 0 {
		return math.NaN()
	}
	// Binary search for the first point with Value > x.
	i := sort.Search(len(w.pts), func(i int) bool { return w.pts[i].Value > x })
	sum := 0.0
	for _, p := range w.pts[:i] {
		sum += p.Weight
	}
	return sum / w.total
}

// FractionAbove returns the weight fraction with Value > x.
func (w *WeightedCDF) FractionAbove(x float64) float64 {
	f := w.FractionAtOrBelow(x)
	if math.IsNaN(f) {
		return f
	}
	return 1 - f
}

// Quantile returns the smallest value v such that at least q of the
// weight has Value ≤ v.
func (w *WeightedCDF) Quantile(q float64) float64 {
	if w.total == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return w.pts[0].Value
	}
	target := q * w.total
	sum := 0.0
	for _, p := range w.pts {
		sum += p.Weight
		if sum >= target {
			return p.Value
		}
	}
	return w.pts[len(w.pts)-1].Value
}

// Series samples the CDF at n evenly spaced quantiles, for rendering
// figure curves.
func (w *WeightedCDF) Series(n int) []WeightedPoint {
	if n < 2 {
		n = 2
	}
	out := make([]WeightedPoint, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		out[i] = WeightedPoint{Value: w.Quantile(q), Weight: q}
	}
	return out
}

// Mean returns the weighted mean of the points.
func (w *WeightedCDF) Mean() float64 {
	if w.total == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, p := range w.pts {
		sum += p.Value * p.Weight
	}
	return sum / w.total
}

// HodgesLehmannShift returns the Hodges–Lehmann estimator of the
// location shift between two samples: the median of all pairwise
// differences a_i − b_j. It is the natural point estimate to pair with
// the distribution-free interval of DiffMedianCI — robust to the tail
// values (§3.3) that corrupt a difference of means. For large samples
// the pair set is subsampled deterministically to bound cost.
func HodgesLehmannShift(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.NaN()
	}
	// Bound the pair count at ~250k by striding deterministically.
	const maxPairs = 1 << 18
	strideA, strideB := 1, 1
	for (len(a)/strideA)*(len(b)/strideB) > maxPairs {
		if len(a)/strideA >= len(b)/strideB {
			strideA++
		} else {
			strideB++
		}
	}
	diffs := make([]float64, 0, (len(a)/strideA+1)*(len(b)/strideB+1))
	for i := 0; i < len(a); i += strideA {
		for j := 0; j < len(b); j += strideB {
			diffs = append(diffs, a[i]-b[j])
		}
	}
	sort.Float64s(diffs)
	return Median(diffs)
}
