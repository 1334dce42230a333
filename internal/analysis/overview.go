package analysis

import (
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/segstore"
	"repro/internal/tdigest"
)

// RTTBuckets are Figure 7's MinRTT ranges in milliseconds.
var RTTBuckets = []struct {
	Name   string
	Lo, Hi float64 // Hi exclusive; last bucket open-ended
}{
	{"0-30", 0, 31},
	{"31-50", 31, 51},
	{"51-80", 51, 81},
	{"81+", 81, math.Inf(1)},
}

// PoPOverview accumulates one serving PoP's state.
type PoPOverview struct {
	Sessions int
	Bytes    int64
	MinRTT   *tdigest.TDigest
}

// ContinentOverview accumulates one continent's Figure 6 state.
type ContinentOverview struct {
	MinRTT *tdigest.TDigest
	HD     *tdigest.TDigest
	// HDZero/HDOne/HDDefined count sessions at the HDratio extremes.
	HDZero, HDOne, HDDefined int
}

// Overview is the §4 global snapshot plus the §2.3 traffic
// characterisation, computed streaming over preferred-route samples
// (metrics) and all samples (traffic characterisation).
//
// It is defined as a merge: one accumulator per user group, each the
// fold of that group's samples in stream order, merged in group-key
// order. That makes it a function of the per-group subsequences alone —
// not of how the stream was cut into batches, which shard a group went
// to, how groups interleaved, or when anyone looked — which is what lets
// a dataset that grows by a chunk be folded by that chunk. Add and
// AddColumns feed the accumulators; the exported fields are their merge
// as of the last Seal, and reading them before it reads that older state.
//
// The fold runs in two lanes (Lanes). An accumulator is two parts, one
// per lane, and each lane keeps its parts in a per-group map of its own.
// No field belongs to both parts, so the two lanes may fold one stream
// on two goroutines.
type Overview struct {
	sessionPart
	routePart

	sessions lane[sessionPart, *sessionPart]
	routes   lane[routePart, *routePart]
}

// sessionPart is the sessions lane's part of a fold: per-session traffic
// traits over all samples (session traits do not depend on the egress
// route), per PoP and by serving distance.
type sessionPart struct {
	// Figures 1–3.
	SessionDuration map[sample.Protocol]*tdigest.TDigest // seconds
	BusyFraction    map[sample.Protocol]*tdigest.TDigest
	SessionBytes    *tdigest.TDigest
	TxnsPerSession  map[sample.Protocol]*tdigest.TDigest

	// PerPoP tracks session counts and median latency per serving PoP
	// (§2.1: dozens of PoPs across six continents).
	PerPoP map[string]*PoPOverview

	// ServingDistance holds per-session population→PoP distances in km
	// (§2.1's locality claim); CrossContinentBytes counts traffic served
	// from another continent (paper: ~10%).
	ServingDistance     *tdigest.TDigest
	CrossContinentBytes int64

	// BytesBySessionsOver50Txns / TotalBytes reproduces Figure 3's
	// "sessions with 50+ transactions carry most traffic" claim.
	BytesOver50Txns int64
	TotalBytes      int64

	Sessions int
}

// routePart is the routes lane's part of a fold: Figure 2's per-response
// sizes over all samples, and the performance digests over
// preferred-route samples (§2.2.3).
type routePart struct {
	ResponseBytes  *tdigest.TDigest
	MediaRespBytes *tdigest.TDigest

	// Figure 6a.
	MinRTT *tdigest.TDigest // milliseconds
	HD     *tdigest.TDigest
	// SimpleHD is the §4 ablation baseline's session HDratio.
	SimpleHD                 *tdigest.TDigest
	HDZero, HDOne, HDDefined int

	// Figures 6b/6c.
	PerContinent map[geo.Continent]*ContinentOverview

	// Figure 7: HDratio by MinRTT bucket. HDZeroByRTTBucket counts each
	// bucket's sessions at exactly 0: the share at an atom is a count,
	// because a digest's CDF read just above one is off by up to a
	// centroid (tdigest.TestRankErrorBound).
	HDByRTTBucket     []*tdigest.TDigest
	HDZeroByRTTBucket []int
}

// protocols are the keys of the per-protocol digest maps.
var protocols = [...]sample.Protocol{"all", sample.HTTP1, sample.HTTP2}

func newProtoDigests() map[sample.Protocol]*tdigest.TDigest {
	m := make(map[sample.Protocol]*tdigest.TDigest, len(protocols))
	for _, p := range protocols {
		m[p] = tdigest.New(tdigest.DefaultCompression)
	}
	return m
}

// NewOverview returns an empty overview.
func NewOverview() *Overview {
	o := &Overview{sessions: newLane[sessionPart](), routes: newLane[routePart]()}
	o.sessionPart.init()
	o.routePart.init()
	return o
}

func (o *sessionPart) init() {
	*o = sessionPart{
		SessionDuration: newProtoDigests(),
		BusyFraction:    newProtoDigests(),
		SessionBytes:    tdigest.New(tdigest.DefaultCompression),
		TxnsPerSession:  newProtoDigests(),
		PerPoP:          make(map[string]*PoPOverview),
		ServingDistance: tdigest.New(tdigest.DefaultCompression),
	}
}

func (o *routePart) init() {
	*o = routePart{
		ResponseBytes:     tdigest.New(tdigest.DefaultCompression),
		MediaRespBytes:    tdigest.New(tdigest.DefaultCompression),
		MinRTT:            tdigest.New(200),
		HD:                tdigest.New(200),
		SimpleHD:          tdigest.New(200),
		PerContinent:      make(map[geo.Continent]*ContinentOverview),
		HDZeroByRTTBucket: make([]int, len(RTTBuckets)),
	}
	for range RTTBuckets {
		o.HDByRTTBucket = append(o.HDByRTTBucket, tdigest.New(tdigest.DefaultCompression))
	}
	for _, c := range geo.Continents {
		o.PerContinent[c] = &ContinentOverview{
			MinRTT: tdigest.New(tdigest.DefaultCompression),
			HD:     tdigest.New(tdigest.DefaultCompression),
		}
	}
}

// Instrument registers the overview's ingest counter on reg (nil-safe).
// The sessions lane counts, so each sample is counted once.
func (o *Overview) Instrument(reg *obs.Registry) {
	o.sessions.count = reg.Counter("analysis_overview_samples_total")
}

// Lane is one of an Overview's two lanes: Add and AddColumns fold into
// the lane's part of each user group's accumulator only.
type Lane interface {
	Add(s sample.Sample)
	AddColumns(b *segstore.ColumnBatch)
}

// Lanes returns the overview's two lanes: sessions folds the per-session
// traffic characterisation (Figures 1–3, per PoP, serving distance),
// routes the per-response sizes and the preferred-route performance
// digests (Figures 6–7, the §4 ablation). Folding one stream into each
// is Add (or AddColumns) over it, bit for bit after Seal, on whatever
// goroutines and however far one lane lags the other — as long as each
// lane folds on one goroutine at a time and both are done before Seal.
func (o *Overview) Lanes() (sessions, routes Lane) { return &o.sessions, &o.routes }

// Add folds one sample into its user group's accumulator, both lanes.
func (o *Overview) Add(s sample.Sample) {
	o.sessions.Add(s)
	o.routes.Add(s)
}

// Seal rebuilds the exported fields as the merge, in group-key order, of
// the per-group accumulators, lane by lane. It only reads them
// (tdigest.Merge does not compact its argument), so folding on after a
// Seal leaves every accumulator — and therefore every later Seal —
// exactly where folding without it would have: fold, seal, fold, seal
// equals fold, fold, seal bit for bit. A lane nothing was folded into
// since the last Seal is not merged again. The two lanes seal on two
// goroutines: their parts are disjoint, and each lane merges its groups
// in the same order as ever.
func (o *Overview) Seal() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		o.routes.seal(&o.routePart)
	}()
	o.sessions.seal(&o.sessionPart)
	wg.Wait()
}

// part is one lane's part of an accumulator.
type part[A any] interface {
	*A
	init()
	merge(g *A)
	add(s *sample.Sample)
	// addColumns folds rows [lo, hi) of b in and returns how many it took.
	addColumns(b *segstore.ColumnBatch, lo, hi int) int
}

// lane folds one part of every user group's accumulator. Nothing in it
// is shared with the other lane.
type lane[A any, P part[A]] struct {
	groups map[sample.GroupKey]P
	// cur is curKey's part: consecutive samples mostly share a group, so
	// the row path's routing is one key compare.
	cur    P
	curKey sample.GroupKey
	// sealed reports that the overview's exported part reflects every
	// sample this lane folded.
	sealed bool
	// count, when wired via Instrument, counts samples folded in.
	count *obs.Counter
}

func newLane[A any, P part[A]]() lane[A, P] {
	return lane[A, P]{groups: make(map[sample.GroupKey]P), sealed: true}
}

// group returns (creating if needed) key's part.
func (l *lane[A, P]) group(key sample.GroupKey) P {
	p := l.groups[key]
	if p == nil {
		p = new(A)
		p.init()
		l.groups[key] = p
	}
	return p
}

// Add folds one sample into its user group's part.
func (l *lane[A, P]) Add(s sample.Sample) {
	l.count.Inc()
	if key := s.Key(); l.cur == nil || key != l.curKey {
		l.cur, l.curKey = l.group(key), key
	}
	l.sealed = false
	l.cur.add(&s)
}

// seal sets into to the merge of the lane's parts in group-key order.
func (l *lane[A, P]) seal(into *A) {
	if l.sealed {
		return
	}
	keys := make([]sample.GroupKey, 0, len(l.groups))
	for k := range l.groups {
		keys = append(keys, k)
	}
	// The order agg.Store.Groups uses.
	slices.SortFunc(keys, sample.GroupKey.Compare)
	var sum P = new(A)
	sum.init()
	for _, k := range keys {
		sum.merge(l.groups[k])
	}
	*into, l.sealed = *sum, true
}

// merge folds g into o: digests by tdigest.Merge, counters by addition.
func (o *sessionPart) merge(g *sessionPart) {
	for _, p := range protocols {
		o.SessionDuration[p].Merge(g.SessionDuration[p])
		o.BusyFraction[p].Merge(g.BusyFraction[p])
		o.TxnsPerSession[p].Merge(g.TxnsPerSession[p])
	}
	o.SessionBytes.Merge(g.SessionBytes)
	// Each PoP's state merges on its own, so map order cannot reach it.
	for name, gp := range g.PerPoP {
		pp := o.PerPoP[name]
		if pp == nil {
			pp = &PoPOverview{MinRTT: tdigest.New(tdigest.DefaultCompression)}
			o.PerPoP[name] = pp
		}
		pp.Sessions += gp.Sessions
		pp.Bytes += gp.Bytes
		pp.MinRTT.Merge(gp.MinRTT)
	}
	o.ServingDistance.Merge(g.ServingDistance)
	o.CrossContinentBytes += g.CrossContinentBytes
	o.BytesOver50Txns += g.BytesOver50Txns
	o.TotalBytes += g.TotalBytes
	o.Sessions += g.Sessions
}

// merge folds g into o: digests by tdigest.Merge, counters by addition.
func (o *routePart) merge(g *routePart) {
	o.ResponseBytes.Merge(g.ResponseBytes)
	o.MediaRespBytes.Merge(g.MediaRespBytes)
	o.MinRTT.Merge(g.MinRTT)
	o.HD.Merge(g.HD)
	o.SimpleHD.Merge(g.SimpleHD)
	o.HDZero += g.HDZero
	o.HDOne += g.HDOne
	o.HDDefined += g.HDDefined
	for _, c := range geo.Continents {
		co, gc := o.PerContinent[c], g.PerContinent[c]
		co.MinRTT.Merge(gc.MinRTT)
		co.HD.Merge(gc.HD)
		co.HDZero += gc.HDZero
		co.HDOne += gc.HDOne
		co.HDDefined += gc.HDDefined
	}
	for i := range RTTBuckets {
		o.HDByRTTBucket[i].Merge(g.HDByRTTBucket[i])
		o.HDZeroByRTTBucket[i] += g.HDZeroByRTTBucket[i]
	}
}

// add folds one sample in.
func (o *sessionPart) add(s *sample.Sample) {
	o.Sessions++
	protoAdd := func(m map[sample.Protocol]*tdigest.TDigest, v float64) {
		m["all"].Add(v)
		if d, ok := m[s.Proto]; ok {
			d.Add(v)
		}
	}
	protoAdd(o.SessionDuration, s.Duration.Seconds())
	protoAdd(o.BusyFraction, s.BusyFraction)
	protoAdd(o.TxnsPerSession, float64(s.Transactions))
	o.SessionBytes.Add(float64(s.Bytes))
	o.TotalBytes += s.Bytes
	if s.Transactions >= 50 {
		o.BytesOver50Txns += s.Bytes
	}
	if s.DistanceKm > 0 {
		o.ServingDistance.Add(s.DistanceKm)
	}
	if s.CrossContinent {
		o.CrossContinentBytes += s.Bytes
	}
	pp := o.PerPoP[s.PoP]
	if pp == nil {
		pp = &PoPOverview{MinRTT: tdigest.New(tdigest.DefaultCompression)}
		o.PerPoP[s.PoP] = pp
	}
	pp.Sessions++
	pp.Bytes += s.Bytes
	pp.MinRTT.Add(float64(s.MinRTT) / 1e6)
}

// add folds one sample in.
func (o *routePart) add(s *sample.Sample) {
	for _, rb := range s.ResponseBytes {
		o.ResponseBytes.Add(float64(rb))
		if s.MediaEndpoint {
			o.MediaRespBytes.Add(float64(rb))
		}
	}

	// Performance metrics use the preferred route only (§2.2.3).
	if s.AltIndex != 0 {
		return
	}
	rttMs := float64(s.MinRTT) / float64(time.Millisecond)
	o.MinRTT.Add(rttMs)
	co := o.PerContinent[s.Continent]
	if co != nil {
		co.MinRTT.Add(rttMs)
	}
	if hd, ok := s.HDratio(); ok {
		o.HD.Add(hd)
		o.HDDefined++
		if hd == 0 {
			o.HDZero++
		}
		if hd == 1 {
			o.HDOne++
		}
		if co != nil {
			co.HD.Add(hd)
			co.HDDefined++
			if hd == 0 {
				co.HDZero++
			}
			if hd == 1 {
				co.HDOne++
			}
		}
		for i, b := range RTTBuckets {
			if rttMs >= b.Lo && rttMs < b.Hi {
				o.HDByRTTBucket[i].Add(hd)
				if hd == 0 {
					o.HDZeroByRTTBucket[i]++
				}
				break
			}
		}
	}
	if shd, ok := s.SimpleHDratio(); ok {
		o.SimpleHD.Add(shd)
	}
}

// HDPositiveShare returns the fraction of tested sessions with
// HDratio > 0 (paper: >82%).
func (o *Overview) HDPositiveShare() float64 {
	if o.HDDefined == 0 {
		return math.NaN()
	}
	return 1 - float64(o.HDZero)/float64(o.HDDefined)
}

// HDFullShare returns the fraction of tested sessions with HDratio = 1
// (paper: ~60%).
func (o *Overview) HDFullShare() float64 {
	if o.HDDefined == 0 {
		return math.NaN()
	}
	return float64(o.HDOne) / float64(o.HDDefined)
}

// SimpleApproachMedian returns the §4 ablation's median HDratio (the
// paper reports 0.69, an underestimate of the corrected value).
func (o *Overview) SimpleApproachMedian() float64 { return o.SimpleHD.Quantile(0.5) }
