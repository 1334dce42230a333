// Package workload generates synthetic HTTP sessions whose traffic
// characteristics match the paper's §2.3 (Figures 1–3):
//
//   - Session durations: 7.4% under a second, 33% under a minute, 20%
//     over three minutes; HTTP/1.1 sessions skew shorter than HTTP/2
//     (44% vs 26% under a minute).
//   - Transaction counts: most sessions have a single transaction; over
//     87% of HTTP/1.1 and 75% of HTTP/2 sessions have fewer than 5; yet
//     sessions with 50+ transactions carry more than half of all bytes.
//   - Response sizes: over 50% of responses are under 6 KB; media
//     endpoints serve larger objects (median ~19 KB) with a heavy video
//     tail; 58% of sessions transfer under 10 KB while 6% exceed 1 MB.
//
// The generator substitutes for Facebook's production traffic: the
// measurement pipeline consumes the same per-transaction observations it
// would capture from real load balancers.
package workload

import (
	"math"
	"slices"
	"time"

	"repro/internal/rng"
	"repro/internal/sample"
)

// TxnSpec is one transaction within a session.
type TxnSpec struct {
	// Bytes is the response size.
	Bytes int64
	// At is the transaction's start offset within the session.
	At time.Duration
}

// SessionSpec is a generated HTTP session before network simulation.
type SessionSpec struct {
	Proto    sample.Protocol
	Duration time.Duration
	Media    bool // served by an image/video endpoint
	Txns     []TxnSpec
}

// TotalBytes sums the transaction sizes.
func (s SessionSpec) TotalBytes() int64 {
	var t int64
	for _, x := range s.Txns {
		t += x.Bytes
	}
	return t
}

// Config tunes the generator. The zero value selects the calibrated
// defaults in DefaultConfig.
type Config struct {
	// H2Share is the fraction of sessions using HTTP/2.
	H2Share float64
	// MediaShare is the fraction of sessions served by media endpoints.
	MediaShare float64
	// MaxResponsesRecorded bounds the per-session response list retained
	// on samples (sessions can have 1000+ transactions).
	MaxResponsesRecorded int
}

// DefaultConfig returns parameters calibrated against §2.3.
func DefaultConfig() Config {
	return Config{
		H2Share:              0.55,
		MediaShare:           0.25,
		MaxResponsesRecorded: 32,
	}
}

// durBucket parameterises the piecewise duration model.
type durBucket struct {
	weight float64
	lo, hi time.Duration
	pareto bool // heavy tail within the bucket
}

// Duration bucket tables per protocol, solving the Figure 1a anchors:
// overall P(<1s)=7.4%, P(<60s)=33%, P(>180s)=20% with
// H1 P(<60s)=44% and H2 P(<60s)=26% at H2Share=0.55.
var (
	h1DurBuckets = []durBucket{
		{0.09, 50 * time.Millisecond, time.Second, false},
		{0.35, time.Second, 60 * time.Second, false},
		{0.39, 60 * time.Second, 180 * time.Second, false},
		{0.17, 180 * time.Second, 3600 * time.Second, true},
	}
	h2DurBuckets = []durBucket{
		{0.06, 50 * time.Millisecond, time.Second, false},
		{0.20, time.Second, 60 * time.Second, false},
		{0.51, 60 * time.Second, 180 * time.Second, false},
		{0.23, 180 * time.Second, 3600 * time.Second, true},
	}
)

// txnBucket parameterises the transaction-count model (Figure 3).
type txnBucket struct {
	weight float64
	lo, hi int
}

var (
	h1TxnBuckets = []txnBucket{
		{0.56, 1, 1},
		{0.32, 2, 4},
		{0.10, 5, 49},
		{0.02, 50, 1000},
	}
	h2TxnBuckets = []txnBucket{
		{0.41, 1, 1},
		{0.35, 2, 4},
		{0.19, 5, 49},
		{0.05, 50, 1000},
	}
)

// Generator produces session specs from a deterministic stream.
type Generator struct {
	cfg Config
	r   *rng.RNG

	h1Dur, h2Dur *rng.Categorical
	h1Txn, h2Txn *rng.Categorical

	// spac is placeTxns' exponential-spacing scratch, reused across
	// sessions.
	spac []float64
}

// NewGenerator builds a generator over the given stream.
func NewGenerator(r *rng.RNG, cfg Config) *Generator {
	def := DefaultConfig()
	if cfg.H2Share <= 0 {
		cfg.H2Share = def.H2Share
	}
	if cfg.MediaShare <= 0 {
		cfg.MediaShare = def.MediaShare
	}
	if cfg.MaxResponsesRecorded <= 0 {
		cfg.MaxResponsesRecorded = def.MaxResponsesRecorded
	}
	weights := func(bs []durBucket) []float64 {
		w := make([]float64, len(bs))
		for i, b := range bs {
			w[i] = b.weight
		}
		return w
	}
	tweights := func(bs []txnBucket) []float64 {
		w := make([]float64, len(bs))
		for i, b := range bs {
			w[i] = b.weight
		}
		return w
	}
	return &Generator{
		cfg:   cfg,
		r:     r,
		h1Dur: rng.NewCategorical(weights(h1DurBuckets)),
		h2Dur: rng.NewCategorical(weights(h2DurBuckets)),
		h1Txn: rng.NewCategorical(tweights(h1TxnBuckets)),
		h2Txn: rng.NewCategorical(tweights(h2TxnBuckets)),
	}
}

// Session draws one session spec into a transaction slice of its own.
func (g *Generator) Session() SessionSpec {
	var spec SessionSpec
	g.SessionInto(&spec, nil)
	return spec
}

// SessionInto draws one session spec into spec, appending its
// transactions to arena and returning the extended arena: the draws are
// Session's, in the same order. spec.Txns is the appended tail, capped
// at its length, so a later append to the arena never writes into it;
// many specs can share one arena (the world's draw-ahead ring fills a
// chunk of specs into one), and a caller reuses the arena from [:0]
// once it is done with every spec in it.
func (g *Generator) SessionInto(spec *SessionSpec, arena []TxnSpec) []TxnSpec {
	proto := sample.HTTP1
	durCat, txnCat := g.h1Dur, g.h1Txn
	durBuckets, txnBuckets := h1DurBuckets, h1TxnBuckets
	if g.r.Bool(g.cfg.H2Share) {
		proto = sample.HTTP2
		durCat, txnCat = g.h2Dur, g.h2Txn
		durBuckets, txnBuckets = h2DurBuckets, h2TxnBuckets
	}
	media := g.r.Bool(g.cfg.MediaShare)

	dur := g.drawDuration(durBuckets[durCat.Sample(g.r)])
	n := g.drawTxnCount(txnBuckets[txnCat.Sample(g.r)])

	lo := len(arena)
	arena = slices.Grow(arena, n)
	for range n {
		arena = append(arena, TxnSpec{Bytes: g.ResponseSize(media)})
	}
	*spec = SessionSpec{Proto: proto, Duration: dur, Media: media, Txns: arena[lo:len(arena):len(arena)]}
	g.placeTxns(spec)
	return arena
}

// drawDuration samples within a bucket: log-uniform for the bounded
// buckets, bounded Pareto for the tail.
func (g *Generator) drawDuration(b durBucket) time.Duration {
	if b.pareto {
		sec := g.r.BoundedPareto(b.lo.Seconds(), 1.3, b.hi.Seconds())
		return time.Duration(sec * float64(time.Second))
	}
	// Log-uniform between lo and hi keeps short sessions well populated.
	lo, hi := float64(b.lo), float64(b.hi)
	u := g.r.Float64()
	return time.Duration(lo * math.Pow(hi/lo, u))
}

func (g *Generator) drawTxnCount(b txnBucket) int {
	if b.lo == b.hi {
		return b.lo
	}
	if b.hi-b.lo <= 8 {
		return b.lo + g.r.IntN(b.hi-b.lo+1)
	}
	// Heavy-tailed within wide buckets.
	v := int(g.r.BoundedPareto(float64(b.lo), 1.1, float64(b.hi)))
	if v < b.lo {
		v = b.lo
	}
	if v > b.hi {
		v = b.hi
	}
	return v
}

// ResponseSize draws one response size. Dynamic content (API responses,
// rendered HTML) is log-normal around a few KB; media endpoints serve
// larger objects with a heavy video-chunk tail.
func (g *Generator) ResponseSize(media bool) int64 {
	if media {
		if g.r.Bool(0.12) {
			// Streaming-video chunk: 100 KB – 4 MB, heavy tailed.
			return int64(g.r.BoundedPareto(100_000, 1.1, 4_000_000))
		}
		v := g.r.LogNormalMedian(19_000, 1.0)
		return clampI64(int64(v), 200, 2_000_000)
	}
	// Half of all objects fetched are under ~3 KB (§1, §2.3): API
	// responses, rendered HTML and other dynamic content.
	v := g.r.LogNormalMedian(1_700, 1.25)
	return clampI64(int64(v), 80, 500_000)
}

func clampI64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// placeTxns spreads transactions across the session: the first at the
// start, the rest at sorted uniform offsets (sessions are mostly idle —
// Figure 1b emerges because transfer time is small versus duration).
func (g *Generator) placeTxns(spec *SessionSpec) {
	n := len(spec.Txns)
	if n == 0 {
		return
	}
	spec.Txns[0].At = 0
	if n == 1 {
		return
	}
	// Draw offsets uniformly over the first 90% of the session and sort
	// by insertion (simple selection keeps it O(n log n) via sort-free
	// sampling: draw sorted uniforms via exponential spacings).
	total := 0.0
	spac := g.spac[:0]
	for range n - 1 {
		spac = append(spac, g.r.Exponential(1))
		total += spac[len(spac)-1]
	}
	g.spac = spac
	total += g.r.Exponential(1) // final gap to session end
	at := 0.0
	horizon := float64(spec.Duration) * 0.9
	for i := 1; i < n; i++ {
		at += spac[i-1]
		spec.Txns[i].At = time.Duration(at / total * horizon)
	}
}

// RecordedResponses returns the response sizes to retain on the sample,
// truncated per config.
func (g *Generator) RecordedResponses(spec SessionSpec) []int64 {
	n := len(spec.Txns)
	if n > g.cfg.MaxResponsesRecorded {
		n = g.cfg.MaxResponsesRecorded
	}
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		out[i] = spec.Txns[i].Bytes
	}
	return out
}
