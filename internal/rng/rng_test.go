package rng

import (
	"math"
	"sort"
	"testing"
	"unsafe"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical draws", same)
	}
}

func TestChildDeterminism(t *testing.T) {
	a := New(7).Child("workload")
	b := New(7).Child("workload")
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same (seed,label) child diverged at draw %d", i)
		}
	}
}

func TestChildLabelsIndependent(t *testing.T) {
	parent := New(7)
	a := parent.Child("a")
	b := parent.Child("b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("children with different labels matched %d/100 draws", same)
	}
}

func TestChildAtNoParentConsumption(t *testing.T) {
	seed := uint64(99)
	c1 := ChildAt(seed, "shard", 3)
	c2 := ChildAt(seed, "shard", 3)
	if c1.Uint64() != c2.Uint64() {
		t.Error("ChildAt not deterministic")
	}
	d1 := ChildAt(seed, "shard", 4)
	d2 := ChildAt(seed, "shard", 3)
	d2.Uint64()
	if d1.Uint64() == d2.Uint64() {
		t.Error("ChildAt with different indexes should differ")
	}
}

func TestUniformRange(t *testing.T) {
	r := New(1)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(5, 10)
		if v < 5 || v >= 10 {
			t.Fatalf("Uniform(5,10) = %v out of range", v)
		}
	}
}

func TestBoolExtremes(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(123)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) empirical p = %v", p)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(5)
	n := 50001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormalMedian(40, 0.5)
	}
	sort.Float64s(vals)
	med := vals[n/2]
	if math.Abs(med-40) > 1.5 {
		t.Errorf("LogNormalMedian(40, .5) empirical median %v, want ~40", med)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(9)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Exponential(7)
	}
	mean := sum / float64(n)
	if math.Abs(mean-7) > 0.2 {
		t.Errorf("Exponential(7) empirical mean %v", mean)
	}
}

func TestParetoMinimum(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(3, 1.2); v < 3 {
			t.Fatalf("Pareto(3, 1.2) = %v < xm", v)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	r := New(13)
	n, big := 200000, 0
	for i := 0; i < n; i++ {
		if r.Pareto(1, 1.1) > 100 {
			big++
		}
	}
	// P(X > 100) = 100^-1.1 ~ 0.0063
	p := float64(big) / float64(n)
	if p < 0.003 || p > 0.012 {
		t.Errorf("Pareto tail mass %v, want ~0.006", p)
	}
}

func TestBoundedPareto(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		v := r.BoundedPareto(2, 1.0, 50)
		if v < 2 || v > 50 {
			t.Fatalf("BoundedPareto out of range: %v", v)
		}
	}
}

func TestCategoricalWeights(t *testing.T) {
	c := NewCategorical([]float64{1, 2, 7})
	r := New(21)
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[c.Sample(r)]++
	}
	want := []float64{0.1, 0.2, 0.7}
	for i, w := range want {
		p := float64(counts[i]) / float64(n)
		if math.Abs(p-w) > 0.01 {
			t.Errorf("category %d: empirical %v, want %v", i, p, w)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	for _, weights := range [][]float64{{}, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCategorical(%v) did not panic", weights)
				}
			}()
			NewCategorical(weights)
		}()
	}
}

func TestMixture(t *testing.T) {
	m := NewMixture([]float64{1, 1},
		func(r *RNG) float64 { return 1 },
		func(r *RNG) float64 { return 100 },
	)
	r := New(31)
	lo, hi := 0, 0
	for i := 0; i < 10000; i++ {
		if m.Sample(r) == 1 {
			lo++
		} else {
			hi++
		}
	}
	if math.Abs(float64(lo-hi)) > 600 {
		t.Errorf("mixture not balanced: %d vs %d", lo, hi)
	}
}

func TestMixtureMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched mixture did not panic")
		}
	}()
	NewMixture([]float64{1}, func(r *RNG) float64 { return 0 }, func(r *RNG) float64 { return 1 })
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := New(41)
	n := 100
	counts := make([]int, n+1)
	for i := 0; i < 100000; i++ {
		k := r.Zipf(n, 1.3)
		if k < 1 || k > n {
			t.Fatalf("Zipf out of range: %d", k)
		}
		counts[k]++
	}
	if counts[1] < counts[10] {
		t.Errorf("Zipf not skewed: count[1]=%d count[10]=%d", counts[1], counts[10])
	}
	if r.Zipf(1, 1.3) != 1 {
		t.Error("Zipf(1) != 1")
	}
}

func TestPerm(t *testing.T) {
	r := New(51)
	p := r.Perm(10)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("bad permutation %v", p)
	}
}

// Each stream's PCG state sits on a cache line of its own: an RNG is
// one line, and the allocator places it on a line boundary, so sibling
// streams drawn on two goroutines never share a line.
func TestStreamOwnsCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(RNG{}); got != cacheLine {
		t.Fatalf("RNG is %d bytes, want %d", got, cacheLine)
	}
	parent := ChildAt(3, "traffic", 0)
	for i, r := range []*RNG{parent, parent.Child("workload"), New(1), ChildAt(3, "traffic", 1)} {
		if a := uintptr(unsafe.Pointer(&r.pcg)); a/cacheLine != (a+unsafe.Sizeof(r.pcg)-1)/cacheLine {
			t.Errorf("stream %d: PCG state at %#x straddles a line", i, a)
		}
		if a := uintptr(unsafe.Pointer(r)); a%cacheLine != 0 {
			t.Errorf("stream %d at %#x is not line-aligned", i, a)
		}
	}
}
