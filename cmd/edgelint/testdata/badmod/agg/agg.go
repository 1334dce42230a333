// Package agg is a known-bad fixture: its final import-path segment
// puts it under the deterministic-package contract, and every function
// violates one rule.
package agg

import (
	"math/rand"
	"time"
)

// Stamp reads the wall clock in a deterministic package.
func Stamp() time.Time {
	return time.Now()
}

// Draw uses global math/rand state.
func Draw() int {
	return rand.Int()
}

// Keys feeds a slice from map iteration without sorting.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
