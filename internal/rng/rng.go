// Package rng provides deterministic, splittable random number generation
// and the distributions used by the synthetic workload and world models.
//
// Every generator is seeded explicitly so simulations are reproducible:
// the same seed always produces the same dataset, which the experiment
// harness relies on when comparing against recorded results. Streams can
// be split by label (Child) so that adding samples to one subsystem does
// not perturb the draws seen by another.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
)

// RNG is a deterministic random source with distribution helpers.
//
// The PCG state lives inside the RNG, and an RNG is exactly one cache
// line (cacheLine bytes), which the allocator's 64-byte size class
// places on a line boundary. Sibling streams drawn on different
// goroutines (a world group's flow-model stream and its workload
// stream, which the draw-ahead goroutine owns) would otherwise be
// allocated side by side and trade one line between cores on every
// draw.
type RNG struct {
	src rand.Rand // reads pcg
	pcg rand.PCG
	_   [cacheLine - 32]byte // rand.Rand and rand.PCG are 16 bytes each
}

// cacheLine is the size of an RNG: one cache line on amd64 and arm64.
const cacheLine = 64

// newPCG returns an RNG over PCG(a, b).
func newPCG(a, b uint64) *RNG {
	r := new(RNG)
	r.pcg.Seed(a, b)
	r.src = *rand.New(&r.pcg)
	return r
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return newPCG(seed, seed^0x9e3779b97f4a7c15)
}

// Child derives an independent stream from this generator's seed space
// and a label. Two children with different labels produce uncorrelated
// streams; the same (seed, label) pair always produces the same stream.
func (r *RNG) Child(label string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(label))
	// Mix the label hash with fresh draws from the parent so children of
	// children remain distinct.
	a := r.src.Uint64() ^ h.Sum64()
	b := r.src.Uint64() ^ (h.Sum64() * 0x9e3779b97f4a7c15)
	return newPCG(a, b)
}

// ChildAt derives an independent stream from a label and an index,
// without consuming draws from the parent. Useful for sharding work
// across goroutines deterministically.
func ChildAt(seed uint64, label string, index int) *RNG {
	h := fnv.New64a()
	h.Write([]byte(label))
	a := seed ^ h.Sum64() ^ uint64(index)*0x9e3779b97f4a7c15
	b := (seed * 0xbf58476d1ce4e5b9) ^ h.Sum64() ^ uint64(index)
	return newPCG(a, b)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Uint64 returns a uniform 64-bit value.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// IntN returns a uniform value in [0, n).
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Int64N returns a uniform value in [0, n).
func (r *RNG) Int64N(n int64) int64 { return r.src.Int64N(n) }

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// Normal returns a normally distributed value.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}

// LogNormal returns a log-normally distributed value where mu and sigma
// are the parameters of the underlying normal (i.e. the median is e^mu).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.src.NormFloat64())
}

// LogNormalMedian returns a log-normal draw parameterised by its median
// and the sigma of the underlying normal, which is how the world model's
// latency distributions are configured.
func (r *RNG) LogNormalMedian(median, sigma float64) float64 {
	return median * math.Exp(sigma*r.src.NormFloat64())
}

// Exponential returns an exponentially distributed value with the given
// mean.
func (r *RNG) Exponential(mean float64) float64 {
	return r.src.ExpFloat64() * mean
}

// Pareto returns a Pareto-distributed value with minimum xm and shape
// alpha. Heavy-tailed object sizes and session durations use this.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.src.Float64()
	for u == 0 {
		u = r.src.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// BoundedPareto returns a Pareto draw truncated to [xm, max].
func (r *RNG) BoundedPareto(xm, alpha, max float64) float64 {
	v := r.Pareto(xm, alpha)
	if v > max {
		return max
	}
	return v
}

// Categorical selects index i with probability weights[i]/sum(weights).
// It panics if weights is empty or sums to a non-positive value.
type Categorical struct {
	cum []float64
}

// NewCategorical builds a categorical sampler from unnormalised weights.
func NewCategorical(weights []float64) *Categorical {
	if len(weights) == 0 {
		panic("rng: empty categorical weights")
	}
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("rng: negative categorical weight")
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		panic("rng: categorical weights sum to zero")
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Categorical{cum: cum}
}

// Sample draws an index from the distribution.
func (c *Categorical) Sample(r *RNG) int {
	u := r.Float64()
	return sort.SearchFloat64s(c.cum, u)
}

// Mixture draws from a set of component distributions with weights.
type Mixture struct {
	cat   *Categorical
	draws []func(*RNG) float64
}

// NewMixture builds a mixture; weights and components must align.
func NewMixture(weights []float64, components ...func(*RNG) float64) *Mixture {
	if len(weights) != len(components) {
		panic("rng: mixture weights and components mismatch")
	}
	return &Mixture{cat: NewCategorical(weights), draws: components}
}

// Sample draws a value from the mixture.
func (m *Mixture) Sample(r *RNG) float64 {
	return m.draws[m.cat.Sample(r)](r)
}

// Zipf returns a Zipf-distributed value in [1, n] with exponent s > 1
// approximated by inverse-CDF sampling; used for per-prefix traffic skew.
func (r *RNG) Zipf(n int, s float64) int {
	if n <= 1 {
		return 1
	}
	// Inverse transform on the continuous approximation.
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	if s == 1 {
		s = 1.0000001
	}
	t := math.Pow(float64(n), 1-s)
	x := math.Pow(u*(t-1)+1, 1/(1-s))
	k := int(x)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.src.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
