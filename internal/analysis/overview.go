package analysis

import (
	"math"
	"slices"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sample"
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
type Overview struct {
	accumulator

	groups map[sample.GroupKey]*accumulator
	// cur is curKey's accumulator: consecutive samples mostly share a
	// group, so the row path's routing is one key compare.
	cur    *accumulator
	curKey sample.GroupKey
	// sealed reports that the exported fields reflect every sample folded.
	sealed bool

	// cSamples, when wired via Instrument, counts samples folded in.
	cSamples *obs.Counter
}

// accumulator is the state of one fold: every digest and counter the
// overview reports. An Overview holds one per user group and, as its own
// exported fields, their merge.
type accumulator struct {
	// Figure 6a.
	MinRTT *tdigest.TDigest // milliseconds
	HD     *tdigest.TDigest
	// SimpleHD is the §4 ablation baseline's session HDratio.
	SimpleHD                 *tdigest.TDigest
	HDZero, HDOne, HDDefined int

	// Figure 6b/6c.
	PerContinent map[geo.Continent]*ContinentOverview

	// Figure 7: HDratio by MinRTT bucket. HDZeroByRTTBucket counts each
	// bucket's sessions at exactly 0: the share at an atom is a count,
	// because a digest's CDF read just above one is off by up to a
	// centroid (tdigest.TestRankErrorBound).
	HDByRTTBucket     []*tdigest.TDigest
	HDZeroByRTTBucket []int

	// Figures 1–3 (computed over all samples; session traits do not
	// depend on the egress route).
	SessionDuration map[sample.Protocol]*tdigest.TDigest // seconds
	BusyFraction    map[sample.Protocol]*tdigest.TDigest
	SessionBytes    *tdigest.TDigest
	ResponseBytes   *tdigest.TDigest
	MediaRespBytes  *tdigest.TDigest
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
	return &Overview{
		accumulator: *newAccumulator(),
		groups:      make(map[sample.GroupKey]*accumulator),
		sealed:      true,
	}
}

func newAccumulator() *accumulator {
	a := &accumulator{
		MinRTT:          tdigest.New(200),
		HD:              tdigest.New(200),
		SimpleHD:        tdigest.New(200),
		PerContinent:    make(map[geo.Continent]*ContinentOverview),
		SessionDuration: newProtoDigests(),
		BusyFraction:    newProtoDigests(),
		SessionBytes:    tdigest.New(tdigest.DefaultCompression),
		ResponseBytes:   tdigest.New(tdigest.DefaultCompression),
		MediaRespBytes:  tdigest.New(tdigest.DefaultCompression),
		TxnsPerSession:  newProtoDigests(),
		ServingDistance: tdigest.New(tdigest.DefaultCompression),
		PerPoP:          make(map[string]*PoPOverview),
	}
	for range RTTBuckets {
		a.HDByRTTBucket = append(a.HDByRTTBucket, tdigest.New(tdigest.DefaultCompression))
	}
	a.HDZeroByRTTBucket = make([]int, len(RTTBuckets))
	for _, c := range geo.Continents {
		a.PerContinent[c] = &ContinentOverview{
			MinRTT: tdigest.New(tdigest.DefaultCompression),
			HD:     tdigest.New(tdigest.DefaultCompression),
		}
	}
	return a
}

// Instrument registers the overview's ingest counter on reg (nil-safe).
func (o *Overview) Instrument(reg *obs.Registry) {
	o.cSamples = reg.Counter("analysis_overview_samples_total")
}

// Add folds one sample into its user group's accumulator.
func (o *Overview) Add(s sample.Sample) {
	o.cSamples.Inc()
	if key := s.Key(); o.cur == nil || key != o.curKey {
		o.cur, o.curKey = o.group(key), key
	}
	o.sealed = false
	o.cur.add(s)
}

// group returns (creating if needed) key's accumulator.
func (o *Overview) group(key sample.GroupKey) *accumulator {
	a := o.groups[key]
	if a == nil {
		a = newAccumulator()
		o.groups[key] = a
	}
	return a
}

// Seal rebuilds the exported fields as the merge, in group-key order, of
// the per-group accumulators. It only reads them (tdigest.Merge does not
// compact its argument), so folding on after a Seal leaves every
// accumulator — and therefore every later Seal — exactly where folding
// without it would have: fold, seal, fold, seal equals fold, fold, seal
// bit for bit. Sealing an overview nothing was folded into since the
// last Seal does nothing.
func (o *Overview) Seal() {
	if o.sealed {
		return
	}
	keys := make([]sample.GroupKey, 0, len(o.groups))
	for k := range o.groups {
		keys = append(keys, k)
	}
	// The order agg.Store.Groups uses.
	slices.SortFunc(keys, sample.GroupKey.Compare)
	sum := newAccumulator()
	for _, k := range keys {
		sum.merge(o.groups[k])
	}
	o.accumulator, o.sealed = *sum, true
}

// merge folds g into o: digests by tdigest.Merge, counters by addition.
func (o *accumulator) merge(g *accumulator) {
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
	for _, p := range protocols {
		o.SessionDuration[p].Merge(g.SessionDuration[p])
		o.BusyFraction[p].Merge(g.BusyFraction[p])
		o.TxnsPerSession[p].Merge(g.TxnsPerSession[p])
	}
	o.SessionBytes.Merge(g.SessionBytes)
	o.ResponseBytes.Merge(g.ResponseBytes)
	o.MediaRespBytes.Merge(g.MediaRespBytes)
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

// add folds one sample in.
func (o *accumulator) add(s sample.Sample) {
	o.Sessions++

	// Traffic characterisation uses every session.
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
	for _, rb := range s.ResponseBytes {
		o.ResponseBytes.Add(float64(rb))
		if s.MediaEndpoint {
			o.MediaRespBytes.Add(float64(rb))
		}
	}
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
