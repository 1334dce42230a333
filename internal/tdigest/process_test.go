package tdigest

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/rng"
)

// processReference is the compaction this package had before process
// was rewritten — an index sort of centroids ++ buffer and the greedy k1
// walk over it — with one word changed: sort.SliceStable for
// sort.Slice. That word is the whole definition of the tie order
// (existing centroids before buffered points, buffered points in
// arrival order), and process must leave a digest in exactly the state
// this does.
func (t *TDigest) processReference() {
	if len(t.bufMeans) == 0 {
		return
	}
	means := append(t.means, t.bufMeans...)
	weights := append(t.weights, t.bufWeights...)
	t.bufMeans = t.bufMeans[:0]
	t.bufWeights = t.bufWeights[:0]
	total := t.total + t.bufTotal
	t.bufTotal = 0

	idx := make([]int, len(means))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return means[idx[a]] < means[idx[b]] })

	outM := make([]float64, 0, int(t.compression)*2)
	outW := make([]float64, 0, int(t.compression)*2)

	soFar := 0.0
	curM, curW := means[idx[0]], weights[idx[0]]
	qLimit := t.kInv(t.k(0) + 1)
	for _, i := range idx[1:] {
		m, w := means[i], weights[i]
		projected := (soFar + curW + w) / total
		if projected <= qLimit {
			// Merge into the current centroid.
			curM += (m - curM) * w / (curW + w)
			curW += w
			continue
		}
		outM = append(outM, curM)
		outW = append(outW, curW)
		soFar += curW
		qLimit = t.kInv(t.k(soFar/total) + 1)
		curM, curW = m, w
	}
	outM = append(outM, curM)
	outW = append(outW, curW)

	t.means, t.weights, t.total = outM, outW, total
}

// refAdd and refMerge are AddWeighted and Merge over processReference.
func (t *TDigest) refAdd(x, w float64) {
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
		t.processReference()
	}
}

func (t *TDigest) refMerge(other *TDigest) {
	// Merge only reads its argument: the reference compacts a copy.
	c := *other
	c.means, c.weights = append([]float64(nil), other.means...), append([]float64(nil), other.weights...)
	c.bufMeans, c.bufWeights = append([]float64(nil), other.bufMeans...), append([]float64(nil), other.bufWeights...)
	c.processReference()
	for i := range c.means {
		t.refAdd(c.means[i], c.weights[i])
	}
	if other.min < t.min {
		t.min = other.min
	}
	if other.max > t.max {
		t.max = other.max
	}
}

// twin is one stream fed to two digests, got through the package and
// ref through the reference. Whenever a buffer has just emptied — a
// compaction ran — the two must hold bit-identical state.
type twin struct {
	t        testing.TB
	got, ref *TDigest
	ops      int

	// unordered is set once the centroid means are no longer in the
	// order the type promises ("sorted by mean"); < is then no order for
	// two processes to agree on, and the twin ignores what follows.
	// Finite values with weights like the repository's never get there;
	// Inf - Inf in the centroid update does (a NaN mean: two +Inf values,
	// or -Inf and anything once the first centroid may hold two points),
	// and so can a weight 2^53 times its neighbour's, which rounds a mean
	// past the next.
	unordered bool
}

func newTwin(t testing.TB, compression float64) *twin {
	return &twin{t: t, got: New(compression), ref: New(compression)}
}

func (tw *twin) add(x, w float64) {
	if tw.unordered {
		return
	}
	tw.got.AddWeighted(x, w)
	tw.ref.refAdd(x, w)
	tw.ops++
	if len(tw.got.bufMeans) == 0 || len(tw.ref.bufMeans) == 0 {
		tw.same()
	}
}

func (tw *twin) compact() {
	if tw.unordered {
		return
	}
	tw.got.Compact()
	tw.ref.processReference()
	tw.ops++
	tw.same()
}

func (tw *twin) merge(other *twin) {
	if tw.unordered || other.unordered {
		return
	}
	tw.got.Merge(other.got)
	tw.ref.refMerge(other.ref)
	tw.ops++
	other.same()
	tw.same()
	tw.unordered = tw.unordered || other.unordered
}

// same fails the test unless the two digests hold the same bits.
func (tw *twin) same() {
	tw.t.Helper()
	got, ref := tw.got, tw.ref
	eq := func(what string, a, b []float64) {
		tw.t.Helper()
		if len(a) != len(b) {
			tw.t.Fatalf("after %d ops: %d %s, the stable reference has %d", tw.ops, len(a), what, len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				tw.t.Fatalf("after %d ops: %s[%d] = %v (%#x), the stable reference has %v (%#x)",
					tw.ops, what, i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
			}
		}
	}
	eq("centroid means", got.means, ref.means)
	eq("centroid weights", got.weights, ref.weights)
	eq("buffered means", got.bufMeans, ref.bufMeans)
	eq("buffered weights", got.bufWeights, ref.bufWeights)
	eq("of total, buffered total, Min, Max, Count",
		[]float64{got.total, got.bufTotal, got.Min(), got.Max(), got.Count()},
		[]float64{ref.total, ref.bufTotal, ref.Min(), ref.Max(), ref.Count()})
	for i, m := range got.means {
		if math.IsNaN(m) || (i > 0 && m < got.means[i-1]) {
			tw.unordered = true
		}
	}
}

// shapes are the value distributions the repository's digests hold,
// shared by the differential test, the fuzz seeds and the rank-error
// bound: all but the third are mostly ties.
var shapes = []struct {
	name string
	draw func(r *rng.RNG) float64
}{
	// HDratio is achieved/tested transactions: atoms at 0 and 1 (40.5 %
	// and 44.5 % here) and small fractions between.
	{"hdratio", func(r *rng.RNG) float64 {
		switch u := r.Float64(); {
		case u < 0.405:
			return 0
		case u < 0.85:
			return 1
		}
		tested := 2 + r.IntN(11)
		return float64(1+r.IntN(tested-1)) / float64(tested)
	}},
	// Transactions per session: small integers.
	{"txns", func(r *rng.RNG) float64 { return float64(1 + int(r.Exponential(6))) }},
	// MinRTT in milliseconds: continuous, so ties are rare.
	{"minrtt", func(r *rng.RNG) float64 { return r.LogNormalMedian(40, 0.8) }},
	// Both zeros (equal under <, different bits), negatives, the ends of
	// the finite range.
	{"signed", func(r *rng.RNG) float64 {
		return [...]float64{math.Copysign(0, -1), 0, -1, 1, -2.5, 2.5, -1e-300, 1e300, -1e300}[r.IntN(9)]
	}},
}

// compressions are the δ the differential test runs at and the fuzz
// target picks from: New's clamp, the default, the overview's, a large
// one.
var compressions = [...]float64{20, 100, 200, 500}

func TestProcessMatchesStableReference(t *testing.T) {
	for _, compression := range compressions {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s/%v", sh.name, compression), func(t *testing.T) {
				r := rng.ChildAt(20, sh.name, int(compression))
				limit := int(8 * compression)

				// Add, compacting at the trigger.
				tw := newTwin(t, compression)
				for i := 0; i < 5*limit+17; i++ {
					tw.add(sh.draw(r), 1)
				}
				tw.compact()

				// Buffer lengths on both sides of the insertion/radix
				// cutoff, over empty and over populated centroids.
				forced := newTwin(t, compression)
				for _, k := range []int{1, 2, 3, insertionCutoff - 1, insertionCutoff, insertionCutoff + 1,
					2 * insertionCutoff, 1, insertionCutoff, insertionCutoff + 1, limit - 1} {
					for i := 0; i < k; i++ {
						forced.add(sh.draw(r), 1)
					}
					forced.compact()
				}

				// Equal means of unequal weight: AddWeighted on the
				// shape's atoms, then Merge of compacted parts, whose
				// centroids tie with the target's and with each other's.
				for i := 0; i < 3*limit; i++ {
					forced.add(sh.draw(r), [...]float64{0.5, 1, 2, 3, 7}[r.IntN(5)])
				}
				for p := 0; p < 16; p++ {
					part := newTwin(t, compression)
					for i, n := 0, 1+r.IntN(2*limit); i < n; i++ {
						part.add(sh.draw(r), 1)
					}
					tw.merge(part)
					forced.merge(part)
				}
				tw.merge(forced)

				if tw.unordered {
					t.Fatal("finite values left the centroid means out of order")
				}
			})
		}
	}
}

// Infinite values are compared for as long as the means stay ordered:
// one of each sign sits alone in an end centroid while the first
// centroid's quantile limit is under two points (about 2000 points at
// δ = 100), and the second +Inf makes Inf - Inf.
func TestProcessMatchesStableReferenceAtInfinities(t *testing.T) {
	r := rng.New(20).Child("infinities")
	tw := newTwin(t, 100)
	for i := 0; i < 1500; i++ {
		x := shapes[2].draw(r)
		switch i {
		case 10:
			x = math.Inf(1)
		case 700:
			x = math.Inf(-1)
		}
		tw.add(x, 1)
		if i%90 == 0 {
			tw.compact()
		}
	}
	if tw.unordered {
		t.Fatal("one infinity of each sign already left the means out of order")
	}
	for i := 0; i < 3000 && !tw.unordered; i++ {
		tw.add(math.Inf(1), 1)
		tw.add(shapes[2].draw(r), 1)
		if i%90 == 0 {
			tw.compact()
		}
	}
	if !tw.unordered {
		t.Fatal("expected Inf - Inf to end the comparison; the test no longer reaches it")
	}
}

// FuzzProcessMatchesStableReference feeds n values of one shape, then a
// program of operations decoded from data — adds from a palette made
// for ties, raw float64 bits, weighted adds, bursts, forced compactions,
// and merges of a second digest — to a twin.
func FuzzProcessMatchesStableReference(f *testing.F) {
	for shape := range shapes {
		for _, n := range []uint16{0, insertionCutoff - 1, insertionCutoff + 1, 1000} {
			f.Add(uint8(shape), uint8(shape), n, []byte{7, 0, 3, 200, 5, 7, 1, 6, 2, 3, 7, 2, 0, 8, 0, 9, 7, 3})
		}
	}
	f.Add(uint8(0), uint8(1), uint16(2000), []byte{0, 8, 0, 8, 3, 255, 1, 3, 255, 2, 7, 0, 0, 9})
	f.Add(uint8(2), uint8(0), uint16(70), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0})

	palette := [...]float64{0, math.Copysign(0, -1), 1, -1, 0.5, 2, 3, 1e-300, math.Inf(1), math.Inf(-1), 1e300, -1e300}
	f.Fuzz(func(t *testing.T, shape, comp uint8, n uint16, data []byte) {
		compression := compressions[int(comp)%len(compressions)]
		sh := shapes[int(shape)%len(shapes)]
		r := rng.ChildAt(20, "fuzz", int(n))
		tw, side := newTwin(t, compression), newTwin(t, compression)
		for i := 0; i < int(n%4096); i++ {
			tw.add(sh.draw(r), 1)
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		for len(data) > 0 {
			switch op := next(); op % 8 {
			case 0: // a palette value
				tw.add(palette[int(next())%len(palette)], 1)
			case 1: // any float64
				var bits uint64
				for i := 0; i < 8; i++ {
					bits |= uint64(next()) << (8 * i)
				}
				x := math.Float64frombits(bits)
				if !math.IsInf(x, 0) && math.Abs(x) > 1e300 {
					// Finite means 2e308 apart overflow m - curM.
					x = math.Copysign(1e300, x)
				}
				tw.add(x, 1)
			case 2: // a small integer at an unequal weight
				tw.add(float64(next()%8), [...]float64{0.5, 1, 2, 3}[next()%4])
			case 3: // a burst of small integers
				c, step := int(next()), int(next())
				for i := 0; i < c; i++ {
					tw.add(float64((i*step+c)%13), 1)
				}
			case 4: // more of the shape
				for i, c := 0, int(next()); i < c; i++ {
					tw.add(sh.draw(r), 1)
				}
			case 5:
				tw.compact()
			case 6: // the other digest takes the adds
				tw, side = side, tw
			case 7:
				// Merge compares only once it is done, so it runs only
				// where every compaction inside it has ordered means to
				// work on: no infinity on either side.
				if !math.IsInf(tw.got.min, 0) && !math.IsInf(tw.got.max, 0) &&
					!math.IsInf(side.got.min, 0) && !math.IsInf(side.got.max, 0) {
					tw.merge(side)
					side = newTwin(t, compression)
				}
			}
		}
		tw.compact()
		side.compact()
	})
}

// The scratch pool is the one thing digests share. Eight goroutines
// compact their own digests at once, through both sorts, and each must
// end where the sequential reference does; `go test -race` watches the
// pool.
func TestConcurrentCompactionSharesOnlyThePool(t *testing.T) {
	const goroutines, digests = 8, 40
	feed := func(g, i int, add func(x float64), compact func()) {
		r := rng.ChildAt(20, "concurrent", g*digests+i)
		sh := shapes[(g+i)%len(shapes)]
		for round := 0; round < 3; round++ {
			for k, n := 0, 1+r.IntN(4*insertionCutoff); k < n; k++ {
				add(sh.draw(r))
			}
			compact()
		}
	}
	got := make([][]*TDigest, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]*TDigest, digests)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range got[g] {
				d := New(DefaultCompression)
				feed(g, i, d.Add, d.Compact)
				got[g][i] = d
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, d := range got[g] {
			ref := New(DefaultCompression)
			feed(g, i, func(x float64) { ref.refAdd(x, 1) }, ref.processReference)
			(&twin{t: t, got: d, ref: ref}).same()
		}
	}
}
