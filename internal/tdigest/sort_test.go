package tdigest

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// stableSorted is the definition sortByMean must meet: the buffer sorted
// by sort.SliceStable under <, so equal means — the two zeros among them
// — keep their arrival order and their weights.
func stableSorted(means, weights []float64) (sm, sw []float64) {
	idx := make([]int, len(means))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return means[idx[a]] < means[idx[b]] })
	for _, i := range idx {
		sm, sw = append(sm, means[i]), append(sw, weights[i])
	}
	return sm, sw
}

// checkSort sorts a copy of the buffer through a pooled scratch, as
// process does, and fails unless the result is stableSorted's bit for
// bit. A weighted buffer gets distinct weights, so that a weight that
// leaves its mean shows.
func checkSort(t testing.TB, means []float64, weighted bool) {
	t.Helper()
	weights := make([]float64, len(means))
	for i := range weights {
		weights[i] = 1
		if weighted {
			weights[i] = float64(i + 2)
		}
	}
	wantM, wantW := stableSorted(means, weights)
	gotM, gotW := append([]float64(nil), means...), append([]float64(nil), weights...)
	s := scratchPool.Get().(*scratch)
	s.sortByMean(gotM, gotW)
	scratchPool.Put(s)
	for i := range wantM {
		if math.Float64bits(gotM[i]) != math.Float64bits(wantM[i]) || math.Float64bits(gotW[i]) != math.Float64bits(wantW[i]) {
			t.Fatalf("n=%d weighted=%v: [%d] = (%v %#x, %v), sort.SliceStable has (%v %#x, %v)", len(means), weighted,
				i, gotM[i], math.Float64bits(gotM[i]), gotW[i], wantM[i], math.Float64bits(wantM[i]), wantW[i])
		}
	}
}

func TestSortByMeanMatchesStable(t *testing.T) {
	negZero := math.Copysign(0, -1)
	fill := func(n int, draw func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = draw(i)
		}
		return xs
	}
	r := rng.New(25).Child("sort")
	// oneNegZero puts one -0 among n +0s and 1s at arrival position at.
	oneNegZero := func(n, at int) []float64 {
		return fill(n, func(i int) float64 {
			switch {
			case i == at:
				return negZero
			case i%3 == 0:
				return 1
			}
			return 0
		})
	}
	sizes := []int{insertionCutoff - 1, insertionCutoff, insertionCutoff + 1, 800, 1600}
	cases := map[string]func(n int) []float64{
		"all equal": func(n int) []float64 { return fill(n, func(int) float64 { return 40.25 }) },
		"one differs": func(n int) []float64 {
			return fill(n, func(i int) float64 { return [...]float64{40.25, math.Nextafter(40.25, 40)}[i/(n-1)] })
		},
		"-0 first":  func(n int) []float64 { return oneNegZero(n, 0) },
		"-0 middle": func(n int) []float64 { return oneNegZero(n, n/2) },
		"-0 last":   func(n int) []float64 { return oneNegZero(n, n-1) },
		"zeros of mixed sign": func(n int) []float64 {
			return fill(n, func(int) float64 { return math.Copysign(0, float64(r.IntN(2))-0.5) })
		},
		"infinities, subnormals, negatives": func(n int) []float64 {
			return fill(n, func(int) float64 {
				return [...]float64{math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 2.2e-308, -1, -1e300, 0, negZero, 3}[r.IntN(10)]
			})
		},
		"lowest byte differs": func(n int) []float64 {
			return fill(n, func(int) float64 { return math.Float64frombits(math.Float64bits(1.5) | uint64(r.IntN(256))) })
		},
		"top byte differs": func(n int) []float64 {
			return fill(n, func(int) float64 { return math.Float64frombits(uint64(r.IntN(256)) << 56) })
		},
		"hdratio atoms": func(n int) []float64 { return fill(n, func(int) float64 { return float64(r.IntN(2)) }) },
		"hdratio":       func(n int) []float64 { return fill(n, func(int) float64 { return shapes[0].draw(r) }) },
		"minrtt":        func(n int) []float64 { return fill(n, func(int) float64 { return shapes[2].draw(r) }) },
	}
	for name, draw := range cases {
		for _, n := range sizes {
			for _, weighted := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%d/weighted=%v", name, n, weighted), func(t *testing.T) {
					checkSort(t, draw(n), weighted)
				})
			}
		}
	}
}

// FuzzSortByMean sorts a buffer of n ≤ 3 200 points, unit or weighted,
// whose means are data's float64 bits, eight bytes a point, cycled when
// the buffer is the longer (so long buffers are all ties); NaN, which no
// buffer holds, becomes -0.
func FuzzSortByMean(f *testing.F) {
	for _, n := range []uint16{insertionCutoff, insertionCutoff + 1, 800} {
		f.Add(n, false, []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0})
		f.Add(n, true, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0, 0, 0, 0, 0, 0xf0, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x80})
	}
	f.Fuzz(func(t *testing.T, n uint16, weighted bool, data []byte) {
		if len(data) < 8 {
			return
		}
		means := make([]float64, int(n)%3201)
		for i := range means {
			var bits uint64
			for j := 0; j < 8; j++ {
				bits |= uint64(data[(8*i+j)%len(data)]) << (8 * j)
			}
			if means[i] = math.Float64frombits(bits); math.IsNaN(means[i]) {
				means[i] = math.Copysign(0, -1)
			}
		}
		checkSort(t, means, weighted)
	})
}

// sortShapes are the overview's value shapes; respbytes stands for its
// byte counts and durations, integers over several decades.
var sortShapes = []struct {
	name string
	draw func(r *rng.RNG) float64
}{
	shapes[0], shapes[1], shapes[2],
	{"respbytes", func(r *rng.RNG) float64 { return math.Round(r.LogNormalMedian(20e3, 1.5)) }},
}

// BenchmarkSortByMean sorts the buffer one compaction of a default
// digest sorts, the size nearly every sort in batch_replay has; a
// weighted buffer holds what Merge adds, centroids of unequal weight.
// The reset copy of the buffer is inside the timing.
func BenchmarkSortByMean(b *testing.B) {
	const n = 8 * DefaultCompression
	for _, sh := range sortShapes {
		for _, weighted := range []bool{false, true} {
			name := sh.name + "/unit"
			if weighted {
				name = sh.name + "/weighted"
			}
			b.Run(name, func(b *testing.B) {
				r := rng.ChildAt(25, sh.name, n)
				src, srcW := make([]float64, n), make([]float64, n)
				for i := range src {
					src[i], srcW[i] = sh.draw(r), 1
					if weighted {
						srcW[i] = float64(1 + r.IntN(40))
					}
				}
				means, weights := make([]float64, n), make([]float64, n)
				s := new(scratch)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(means, src)
					copy(weights, srcW)
					s.sortByMean(means, weights)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
			})
		}
	}
}
