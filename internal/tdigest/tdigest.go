// Package tdigest implements the merging t-digest of Dunning & Ertl
// ("Computing Extremely Accurate Quantiles Using t-Digests",
// arXiv:1902.04023), the streaming quantile sketch the paper cites for
// computing percentiles and confidence intervals in near real time
// (§3.4.1, footnote 11).
//
// The digest maintains a set of centroids whose sizes are bounded by the
// k1 scale function, which concentrates resolution near the tails while
// keeping memory bounded by the compression parameter. Aggregations in
// this repository use a digest per (user group, window, route, metric).
//
// A digest's state is a function of the values added and their order
// alone: when a compaction meets equal means, existing centroids go
// before buffered points and buffered points in arrival order, so no
// sorting library's treatment of ties reaches the bytes of a report.
// The buffer sort orders the means' bit patterns, on which equal means
// are equal keys except ±0, whose signs it restores in arrival order.
//
// A compaction closes a centroid when the next point would carry it past
// its k1 limit, the quantile kInv(k(q)+1) for q the weight before it.
// That limit is an arcsine and a sine; the compaction decides by an
// estimate of it with neither, from the angle-sum identity and one
// square root, and computes the exact limit only for a point whose
// projected quantile lies within limitBand of the estimate or is not a
// number. The estimate is within 4e-14 of the exact limit, far inside
// the band, so every merge decision is the exact limit's and the state
// is bit for bit what the exact limit alone leaves.
package tdigest

import (
	"math"
	"math/bits"
	"sort"
	"sync"
)

// TDigest is a streaming quantile sketch. The zero value is not usable;
// call New.
type TDigest struct {
	compression float64

	// Processed centroids, sorted by mean.
	means   []float64
	weights []float64
	total   float64

	// Points buffered until the next merge.
	bufMeans   []float64
	bufWeights []float64
	bufTotal   float64

	min, max float64
}

// DefaultCompression trades ~1KB of state for roughly 0.1–1% quantile
// error at the median and much better accuracy at the tails.
const DefaultCompression = 100

// New returns an empty digest with the given compression (δ). Larger
// compression means more centroids and better accuracy.
func New(compression float64) *TDigest {
	if compression < 20 {
		compression = 20
	}
	return &TDigest{
		compression: compression,
		min:         math.Inf(1),
		max:         math.Inf(-1),
	}
}

// Add inserts a value with weight 1.
func (t *TDigest) Add(x float64) { t.AddWeighted(x, 1) }

// AddWeighted inserts a value with the given weight. NaN values and
// non-positive weights are ignored.
func (t *TDigest) AddWeighted(x, w float64) {
	if math.IsNaN(x) || w <= 0 {
		return
	}
	t.bufMeans = append(t.bufMeans, x)
	t.bufWeights = append(t.bufWeights, w)
	t.bufTotal += w
	if x < t.min {
		t.min = x
	}
	if x > t.max {
		t.max = x
	}
	if len(t.bufMeans) >= int(8*t.compression) {
		t.process()
	}
}

// AddAll inserts every value of xs with weight 1 and returns the
// number inserted (NaN values are skipped, like Add). It is
// state-identical to calling Add in a loop — values append to the same
// buffer and the fold triggers at exactly the same points — just
// without the per-call overhead, so digests fed by the columnar batch
// path match digests fed row-at-a-time bit for bit.
func (t *TDigest) AddAll(xs []float64) int {
	limit := int(8 * t.compression)
	// The buffer grows once a call, to what the call can bring it to (it
	// never holds more than limit) or to double, whichever is more: an
	// aggregation cell takes a few values a batch, and append alone
	// would regrow both slices several times inside its first calls.
	if room := min(limit, len(t.bufMeans)+len(xs)); cap(t.bufMeans) < room {
		room = min(limit, max(room, 2*cap(t.bufMeans)))
		t.bufMeans = append(make([]float64, 0, room), t.bufMeans...)
		t.bufWeights = append(make([]float64, 0, room), t.bufWeights...)
	}
	added := 0
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		t.bufMeans = append(t.bufMeans, x)
		t.bufWeights = append(t.bufWeights, 1)
		t.bufTotal++
		added++
		if x < t.min {
			t.min = x
		}
		if x > t.max {
			t.max = x
		}
		if len(t.bufMeans) >= limit {
			t.process()
		}
	}
	return added
}

// Count returns the total weight added.
func (t *TDigest) Count() float64 { return t.total + t.bufTotal }

// Min returns the smallest value added, or +Inf if empty.
func (t *TDigest) Min() float64 { return t.min }

// Max returns the largest value added, or -Inf if empty.
func (t *TDigest) Max() float64 { return t.max }

// Merge folds other into t — the mergeability property (§3.4.1,
// footnote 11) that lets shard-local aggregations combine into a global
// one. Centroids carry their accumulated weight across, so Count and
// Mean are preserved exactly and quantiles stay within the usual
// compression tolerance. other is only read: points it still buffers are
// compacted in pooled scratch, to the centroids its own next compaction
// would leave, so a digest that is merged from keeps evolving exactly as
// if it had not been. Merging nil is a no-op.
func (t *TDigest) Merge(other *TDigest) {
	if other == nil {
		return
	}
	means, weights := other.means, other.weights
	if len(other.bufMeans) > 0 {
		s := scratchPool.Get().(*scratch)
		defer scratchPool.Put(s)
		means, weights = other.compacted(s)
	}
	for i := range means {
		t.AddWeighted(means[i], weights[i])
	}
	// Centroid means never reach the extremes, so the true min/max must
	// carry over explicitly or the merged digest's tails collapse to the
	// outermost centroids.
	if other.min < t.min {
		t.min = other.min
	}
	if other.max > t.max {
		t.max = other.max
	}
}

// Compact folds any buffered points into the centroid set. Adds are
// buffered for speed, and every read path (Quantile, CDF, Mean, ...)
// triggers the fold lazily — a hidden mutation that makes concurrent
// reads a data race. After Compact, reads are pure until the next Add
// or Merge, so a compacted digest may be shared by concurrent readers;
// the aggregation store seals every digest this way before the analysis
// fan-out.
func (t *TDigest) Compact() { t.process() }

// k1 scale function and its inverse, mapping quantile space to k space.
func (t *TDigest) k(q float64) float64 {
	return t.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

func (t *TDigest) kInv(k float64) float64 {
	return (math.Sin(k*2*math.Pi/t.compression) + 1) / 2
}

// limitBand is how far a projected quantile must lie from the estimate
// of its centroid's k1 limit for the estimate to decide the merge. The
// two are within 4e-14 of each other for every q in [0, 1] and every
// compression from 20, the worst case being q near 0 or 1 at δ = 20
// (TestLimitEstimateError), so a point outside the band is on the same
// side of both.
const limitBand = 1e-9

// limitEstimate is kInv(k(q)+1) without a transcendental: with
// x = 2q-1 = sin a and c = 2π/δ, the limit (sin(a+c)+1)/2 is
// (x·cos c + cos a·sin c + 1)/2 by the angle-sum identity, and
// cos a = √(1-x²), a being in [-π/2, π/2]. A q outside [0, 1] gives NaN.
func limitEstimate(q, sinC, cosC float64) float64 {
	x := 2*q - 1
	return (x*cosC + math.Sqrt((1-x)*(1+x))*sinC + 1) / 2
}

// process merges buffered points into the centroid set: it sorts the
// buffer, then runs the compaction loop over the merge of the (already
// sorted) centroids and the sorted buffer.
func (t *TDigest) process() {
	n := len(t.bufMeans)
	if n == 0 {
		return
	}
	nc := len(t.means)
	s := scratchPool.Get().(*scratch)
	s.sortByMean(t.bufMeans, t.bufWeights)

	// The output overwrites t.means/t.weights from the front and can
	// overtake the centroid cursor (a buffer that sorts below every
	// centroid), so the loop reads the old centroids from a copy.
	s.old = append(append(s.old[:0], t.means...), t.weights...)

	// The k1 scale function keeps a compacted digest under 2δ centroids;
	// a digest that never saw that many points needs only room for them.
	if need := min(2*int(t.compression), nc+n); cap(t.means) < need {
		t.means = make([]float64, 0, need)
		t.weights = make([]float64, 0, need)
	}
	t.means, t.weights = t.compact(s.old[:nc], s.old[nc:], t.bufMeans, t.bufWeights, t.means[:0], t.weights[:0])
	t.total += t.bufTotal
	t.bufMeans, t.bufWeights, t.bufTotal = t.bufMeans[:0], t.bufWeights[:0], 0
	scratchPool.Put(s)
}

// compacted returns the centroids process would leave t with, computed
// in s without touching t: the buffer is copied before it is sorted and
// the output lands in s. They are valid until s goes back to the pool.
func (t *TDigest) compacted(s *scratch) (means, weights []float64) {
	n, room := len(t.bufMeans), len(t.means)+len(t.bufMeans)
	s.old = append(append(s.old[:0], t.bufMeans...), t.bufWeights...)
	bm, bw := s.old[:n], s.old[n:]
	s.sortByMean(bm, bw)
	if cap(s.out) < 2*room {
		s.out = make([]float64, 2*room)
	}
	return t.compact(t.means, t.weights, bm, bw, s.out[:0:room], s.out[room:room:2*room])
}

// compact is the compaction loop: it walks the merge of t's sorted
// centroids (cm, cw) and its sorted buffered points (bm, bw), greedily
// filling centroids to the k1 size limit, and appends them to outM and
// outW. Among equal means existing centroids come before buffered points
// and buffered points keep their arrival order, which the selection below
// (buffer only when strictly smaller) and the stable buffer sort
// implement between them.
func (t *TDigest) compact(cm, cw, bm, bw, outM, outW []float64) (means, weights []float64) {
	nc, n := len(cm), len(bm)
	total := t.total + t.bufTotal
	sinC, cosC := math.Sincos(2 * math.Pi / t.compression)

	soFar := 0.0
	var curM, curW float64
	// qLimit estimates the current centroid's k1 limit.
	qLimit := limitEstimate(0, sinC, cosC)
	for ci, bi := 0, 0; ci < nc || bi < n; {
		var m, w float64
		if bi < n && (ci == nc || bm[bi] < cm[ci]) {
			m, w = bm[bi], bw[bi]
			bi++
		} else {
			m, w = cm[ci], cw[ci]
			ci++
		}
		if ci+bi == 1 { // the first point opens the first centroid
			curM, curW = m, w
			continue
		}
		projected := (soFar + curW + w) / total
		merge := projected < qLimit-limitBand
		if !merge && !(projected > qLimit+limitBand) {
			// Within the band of the estimate, or a NaN on either side:
			// decide by the exact limit.
			merge = projected <= t.kInv(t.k(soFar/total)+1)
		}
		if merge {
			// Merge into the current centroid.
			curM += (m - curM) * w / (curW + w)
			curW += w
			continue
		}
		outM = append(outM, curM)
		outW = append(outW, curW)
		soFar += curW
		qLimit = limitEstimate(soFar/total, sinC, cosC)
		curM, curW = m, w
	}
	return append(outM, curM), append(outW, curW)
}

// scratch is the working memory of one compaction. Digests number in
// the hundreds of thousands (one per aggregation cell), so it lives in a
// pool shared by all of them, not in TDigest.
type scratch struct {
	// old is what the loop must read from a copy, means then weights:
	// process's centroids before the call, compacted's buffer.
	old []float64
	out []float64 // compacted's centroids: means, then weights
	// The radix sort's two sides; each key byte's counts, then next
	// slots; a buffer's zeros, if one is -0.
	recs, recsTo []entry
	slots        [8][256]uint32
	zeros        []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// insertionCutoff is the longest buffer the insertion sort takes,
// measured against the radix sort (go1.24, two shared Xeon cores): they
// cross near 100 points of log-normal values, near 70 of integers and
// near 190 of HDratio, whose atoms serialise the passes' slot updates.
// The aggregation store's cells, two HDratio digests to one MinRTT,
// cross between 128 and 160; it compacts tens of thousands of them,
// holding 10-100 points each, when it seals.
const insertionCutoff = 128

// sortByMean stably sorts the parallel slices by mean: by insertion up
// to insertionCutoff points, above it by a least-significant-digit radix
// sort of {order key, weight} entries, a byte a pass, skipping bytes
// every key shares (a metric's exponent bytes, an integer's low mantissa
// bytes). The passes leave both zeros, on +0's key, one run in arrival
// order; a buffer that held a -0 gives the run its signs back in that
// order.
func (s *scratch) sortByMean(means, weights []float64) {
	n := len(means)
	if n <= insertionCutoff {
		for i := 1; i < n; i++ {
			m, w, j := means[i], weights[i], i
			for ; j > 0 && m < means[j-1]; j-- {
				means[j], weights[j] = means[j-1], weights[j-1]
			}
			means[j], weights[j] = m, w
		}
		return
	}
	if cap(s.recs) < n {
		s.recs, s.recsTo = make([]entry, n), make([]entry, n)
	}
	digits, negZero := s.count(means, weights, s.recs[:n])
	if negZero {
		s.zeros = s.zeros[:0]
		for _, x := range means {
			if x == 0 {
				s.zeros = append(s.zeros, x)
			}
		}
	}
	for i, e := range radix(s.recs[:n], s.recsTo[:n], &s.slots, digits) {
		means[i], weights[i] = fromKey(e.key), e.weight
	}
	if negZero {
		copy(means[sort.SearchFloat64s(means, 0):], s.zeros)
	}
}

// entry is a buffered point under the radix sort.
type entry struct {
	key    uint64
	weight float64
}

// radix scatters src by each byte in digits, low first, from the slots
// count left, and returns the sorted entries.
func radix(src, dst []entry, slots *[8][256]uint32, digits uint8) []entry {
	for ds := digits; ds != 0; ds &= ds - 1 {
		d := bits.TrailingZeros8(ds)
		next, shift := &slots[d], uint(8*d)
		for _, e := range src {
			b := byte(e.key >> shift)
			dst[next[b]] = e
			next[b]++
		}
		src, dst = dst, src
	}
	return src
}

// count fills recs with the points' order keys, -0 on +0's, and
// weights, counting every byte of every key in the same pass. It returns
// whether a mean was -0 and, as a bit set, the bytes in which the keys
// are not all the same, each one's counts turned into its first slots in
// s.slots.
func (s *scratch) count(means, weights []float64, recs []entry) (digits uint8, negZero bool) {
	c := &s.slots
	*c = [8][256]uint32{}
	recs, weights = recs[:len(means)], weights[:len(means)]
	for i, x := range means {
		k := orderKey(x)
		if k == negZeroKey {
			k, negZero = zeroKey, true
		}
		recs[i] = entry{k, weights[i]}
		c[0][byte(k)]++
		c[1][byte(k>>8)]++
		c[2][byte(k>>16)]++
		c[3][byte(k>>24)]++
		c[4][byte(k>>32)]++
		c[5][byte(k>>40)]++
		c[6][byte(k>>48)]++
		c[7][byte(k>>56)]++
	}
	for d := range c {
		if c[d][byte(recs[0].key>>(8*d))] < uint32(len(recs)) {
			digits |= 1 << d
			sum := uint32(0)
			for b, v := range c[d] {
				c[d][b], sum = sum, sum+v
			}
		}
	}
	return digits, negZero
}

// orderKey maps a non-NaN float64 to a uint64 whose unsigned order is
// the float's < order: the sign bit flipped for positives, every bit for
// negatives, which puts -0 (negZeroKey) one below +0 (zeroKey).
func orderKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

const zeroKey, negZeroKey = 1 << 63, 1<<63 - 1

// fromKey inverts orderKey.
func fromKey(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// Quantile returns an estimate of the q-th quantile (q in [0,1]).
// It returns NaN for an empty digest.
func (t *TDigest) Quantile(q float64) float64 {
	t.process()
	if t.total == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return t.min
	}
	if q >= 1 {
		return t.max
	}
	if len(t.means) == 1 {
		return t.means[0]
	}

	target := q * t.total
	// Walk centroids tracking the cumulative weight at each centroid's
	// midpoint, interpolating linearly between midpoints.
	cum := 0.0
	for i := range t.means {
		mid := cum + t.weights[i]/2
		if target < mid {
			if i == 0 {
				// Between min and the first centroid midpoint.
				lo, hi := t.min, t.means[0]
				frac := target / mid
				return lo + (hi-lo)*frac
			}
			prevMid := cum - t.weights[i-1]/2
			frac := (target - prevMid) / (mid - prevMid)
			return t.means[i-1] + (t.means[i]-t.means[i-1])*frac
		}
		cum += t.weights[i]
	}
	// Between the last centroid midpoint and max.
	lastMid := t.total - t.weights[len(t.weights)-1]/2
	frac := (target - lastMid) / (t.total - lastMid)
	if frac > 1 {
		frac = 1
	}
	last := t.means[len(t.means)-1]
	return last + (t.max-last)*frac
}

// CDF returns an estimate of the fraction of mass at or below x.
func (t *TDigest) CDF(x float64) float64 {
	t.process()
	if t.total == 0 {
		return math.NaN()
	}
	if x < t.min {
		return 0
	}
	if x >= t.max {
		return 1
	}
	if len(t.means) == 1 {
		// Single centroid: interpolate across [min, max].
		if t.max == t.min {
			return 1
		}
		return (x - t.min) / (t.max - t.min)
	}
	cum := 0.0
	for i := range t.means {
		if x < t.means[i] {
			if i == 0 {
				if t.means[0] == t.min {
					return 0
				}
				return (x - t.min) / (t.means[0] - t.min) * (t.weights[0] / 2) / t.total
			}
			prevMid := cum - t.weights[i-1]/2
			mid := cum + t.weights[i]/2
			frac := (x - t.means[i-1]) / (t.means[i] - t.means[i-1])
			return (prevMid + frac*(mid-prevMid)) / t.total
		}
		cum += t.weights[i]
	}
	return 1
}

// Mean returns the exact weighted mean of all values added (NaN when
// empty). Unlike quantiles, the mean is preserved exactly by centroid
// merging.
func (t *TDigest) Mean() float64 {
	t.process()
	if t.total == 0 {
		return math.NaN()
	}
	sum := 0.0
	for i := range t.means {
		sum += t.means[i] * t.weights[i]
	}
	return sum / t.total
}

// Centroids returns copies of the centroid means and weights, mainly for
// testing and debugging.
func (t *TDigest) Centroids() (means, weights []float64) {
	t.process()
	return append([]float64(nil), t.means...), append([]float64(nil), t.weights...)
}
