// Fixture for the nondeterminism analyzer: the import path "agg"
// matches the deterministic-package set, so the contracts apply.
package agg

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

func clock() time.Time {
	return time.Now() // want "wall-clock read time.Now in deterministic package"
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want "wall-clock read time.Since in deterministic package"
}

func draw() int {
	return rand.Int() // want "global math/rand draw rand.Int in deterministic package"
}

func emit(m map[string]int) {
	for k := range m {
		fmt.Println(k) // want "order-sensitive sink"
	}
}

func accum(m map[string]float64) float64 {
	var t float64
	for _, v := range m {
		t += v // want "floating-point accumulation into t during map iteration"
	}
	return t
}

func appendNoSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append to keys during map iteration without a subsequent sort"
	}
	return keys
}

func send(m map[string]int, ch chan int) {
	for _, v := range m {
		ch <- v // want "channel send during map iteration"
	}
}

type counter struct{}

func (counter) Add(int) {}

func feedAccumulator(m map[string]int, c counter) {
	for _, v := range m {
		c.Add(v) // want "c.Add called during map iteration feeds an order-sensitive sink"
	}
}

type best struct{ key string }

func argmax(m map[string]float64) string {
	top, b := -1.0, best{}
	for k, v := range m {
		if v > top {
			top = v
			b.key = k // want "range key k assigned to b during map iteration"
		}
	}
	return b.key
}

// --- order-independent patterns that must NOT be flagged ---

func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k // an element of another map: lands where its index says
		local := k
		_ = local
	}
	return out
}

func appendSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func intoMap(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func intSum(m map[string]int) int {
	var t int
	for _, v := range m {
		t += v
	}
	return t
}

func perEntry(m map[string]*counter) {
	for _, c := range m {
		c.Add(1) // receiver is the entry itself: per-key effect, order-free
	}
}

func sliceRange(xs []float64) float64 {
	var t float64
	for _, v := range xs { // slices iterate in order; accumulation is fine
		t += v
	}
	return t
}
