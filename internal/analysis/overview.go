package analysis

import (
	"math"
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
type Overview struct {
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

	// cSamples, when wired via Instrument, counts samples folded in.
	cSamples *obs.Counter
}

func newProtoDigests() map[sample.Protocol]*tdigest.TDigest {
	return map[sample.Protocol]*tdigest.TDigest{
		sample.HTTP1: tdigest.New(tdigest.DefaultCompression),
		sample.HTTP2: tdigest.New(tdigest.DefaultCompression),
		"all":        tdigest.New(tdigest.DefaultCompression),
	}
}

// NewOverview returns an empty overview.
func NewOverview() *Overview {
	o := &Overview{
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
		o.HDByRTTBucket = append(o.HDByRTTBucket, tdigest.New(tdigest.DefaultCompression))
	}
	o.HDZeroByRTTBucket = make([]int, len(RTTBuckets))
	for _, c := range geo.Continents {
		o.PerContinent[c] = &ContinentOverview{
			MinRTT: tdigest.New(tdigest.DefaultCompression),
			HD:     tdigest.New(tdigest.DefaultCompression),
		}
	}
	return o
}

// Instrument registers the overview's ingest counter on reg (nil-safe).
func (o *Overview) Instrument(reg *obs.Registry) {
	o.cSamples = reg.Counter("analysis_overview_samples_total")
}

// Add folds one sample in.
func (o *Overview) Add(s sample.Sample) {
	o.Sessions++
	o.cSamples.Inc()

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
