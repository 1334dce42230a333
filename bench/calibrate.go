package main

import (
	"hash/crc32"
	"sort"
	"time"
)

// The sandbox this benchmark runs in does not run at one speed: the
// same fixed computation takes 160 to 215 ms from one second to the
// next (a busy sibling hyperthread, by the look of it: process CPU time
// moves with wall time, steal does not), and the share of slow seconds
// drifts over minutes. Ten runs of one commit then spread 10 to 25 %
// in op time, and two sets of ten differ by as much in their medians —
// wider than any bound worth having. A change to the code under test
// moves an operation's time relative to everything else the machine
// does; the drift moves everything together. So the untraced run times
// a fixed kernel beside every operation and reports each time divided
// by how much slower than nominal the kernel ran just before and just
// after it: milliseconds at the reference speed. The wall-clock
// medians are printed too, in the conditions of test.

// kernelNominal is what one kernel takes on the reference machine (the
// 2-vCPU sandbox at its usual fast speed). It only fixes the scale.
const kernelNominal = 21 * time.Millisecond

// kernelsPerSlice is how many kernels one speed reading runs.
const kernelsPerSlice = 3

// calibrator reads the machine's speed. A nil calibrator reads 1: the
// traced run and the smoke test take times as they come.
type calibrator struct {
	floats []float64
	bytes  []byte
	x      uint64
	last   float64       // the latest reading, reused as the next operation's "before"
	spent  time.Duration // total time spent reading the speed
	read   []float64     // every reading, for the conditions of test
}

func newCalibrator() *calibrator {
	return &calibrator{floats: make([]float64, 200_000), bytes: make([]byte, 8<<20), x: 88172645463325252}
}

// slowdown runs the kernel — fill and sort 200k floats, checksum 8 MB:
// branches, cache misses and memory streaming, no allocation, no
// system call, nothing of the code under test — and returns how many
// times slower than nominal it ran.
func (c *calibrator) slowdown() float64 {
	if c == nil {
		return 1
	}
	t0 := time.Now()
	for k := 0; k < kernelsPerSlice; k++ {
		for i := range c.floats {
			c.x ^= c.x << 13
			c.x ^= c.x >> 7
			c.x ^= c.x << 17
			c.floats[i] = float64(c.x >> 11)
		}
		sort.Float64s(c.floats)
		c.x ^= uint64(crc32.ChecksumIEEE(c.bytes))
	}
	d := time.Since(t0)
	c.spent += d
	c.last = float64(d) / float64(kernelsPerSlice*kernelNominal)
	c.read = append(c.read, c.last)
	return c.last
}

// around runs f between two speed readings and returns its wall time
// and the mean of the two. The reading before is the one that followed
// the previous call, if there was one: only untimed checks and
// clean-up lie between.
func (c *calibrator) around(f func()) (wallNs, slow float64) {
	before := 1.0
	if c != nil {
		if before = c.last; before == 0 {
			before = c.slowdown()
		}
	}
	t0 := time.Now()
	f()
	wallNs = float64(time.Since(t0))
	return wallNs, (before + c.slowdown()) / 2
}
