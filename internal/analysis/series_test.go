package analysis

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/geo"
	"repro/internal/sample"
)

// cell adds n sessions to one (prefix, window, route) cell with no
// randomness: MinRTT rttMs + 0.25·(i mod 9) ms, HDratio achieved/tested
// (tested 0: a session nothing could test), 1000 bytes each. Route 0 is
// a private peer, 1 transit, 2 a public peer.
func cell(st *agg.Store, prefix string, win, alt, n int, rttMs float64, achieved, tested int) {
	rels := []bgp.RelType{bgp.PrivatePeer, bgp.Transit, bgp.PublicPeer}
	cellRel(st, prefix, win, alt, rels[alt], n, rttMs, achieved, tested)
}

// cellRel is cell with the route's relationship named.
func cellRel(st *agg.Store, prefix string, win, alt int, rel bgp.RelType, n int, rttMs float64, achieved, tested int) {
	for i := 0; i < n; i++ {
		st.Add(sample.Sample{
			PoP: "ams", Prefix: prefix, Country: "DE", Continent: geo.Europe,
			AltIndex: alt,
			Start:    time.Duration(win)*agg.WindowDuration + time.Duration(i)*time.Second,
			MinRTT:   time.Duration((rttMs + 0.25*float64(i%9)) * float64(time.Millisecond)),
			HDTested: tested, HDAchieved: achieved,
			Bytes:   1000,
			RouteID: prefix + "-r", RouteRel: rel, ASPathLen: 1 + alt,
		})
	}
}

// pinnedStore is a hand-built store with one group per case the
// rendered goldens do not reach.
func pinnedStore() *agg.Store {
	st := agg.NewStore()

	// A: three routes. Window 0 is the plain case; in window 1 the
	// faster alternate quarters HDratio (the §3.4 guard); in window 2
	// both alternates' HDratio medians are 1.0 — a tie at the best
	// difference, between intervals that differ; in window 3 the
	// preferred route is below the floor.
	a := "10.0.0.0/24"
	cell(st, a, 0, 0, 40, 30, 4, 4)
	cell(st, a, 0, 1, 35, 20, 4, 4)
	cell(st, a, 0, 2, 35, 25, 3, 4)
	cell(st, a, 1, 0, 40, 30, 4, 4)
	cell(st, a, 1, 1, 35, 18, 1, 4)
	cell(st, a, 2, 0, 60, 30, 2, 4)
	cell(st, a, 2, 1, 40, 28, 4, 4)
	cell(st, a, 2, 2, 60, 33, 10, 10)
	cell(st, a, 2, 2, 45, 33, 19, 20)
	cell(st, a, 3, 0, 10, 30, 4, 4)
	cell(st, a, 3, 1, 35, 20, 4, 4)

	// B: one route, one window — its median is the baseline exactly.
	cell(st, "10.0.1.0/24", 0, 0, 45, 22, 3, 4)

	// C: window 1 has 40 sessions, 10 of them HDratio-defined: enough
	// for the baseline (0.9 with it, 0.95 without), too few to compare.
	c := "10.0.2.0/24"
	cell(st, c, 0, 0, 40, 40, 4, 4)
	cell(st, c, 1, 0, 10, 44, 1, 4)
	cell(st, c, 1, 0, 30, 44, 0, 0)
	cell(st, c, 2, 0, 40, 48, 2, 4)

	// D: no window of the preferred route reaches the floor: no baseline.
	d := "10.0.3.0/24"
	cell(st, d, 0, 0, 12, 50, 4, 4)
	cell(st, d, 0, 1, 35, 45, 4, 4)
	cell(st, d, 1, 0, 8, 50, 4, 4)
	return st
}

// pinnedPoint is one point as the parent of the §3.4 unification
// computed it (commit 71bf91a, per-metric code paths): Float64bits of
// the oriented difference and its interval, validity, guard, alternate.
type pinnedPoint struct {
	prefix       string
	window       int
	diff, lo, hi uint64
	valid, guard bool
	alt          int
}

func (p pinnedPoint) String() string {
	return fmt.Sprintf("%s window %d: diff %#x [%#x, %#x] valid=%v guard=%v alt=%d",
		p.prefix, p.window, p.diff, p.lo, p.hi, p.valid, p.guard, p.alt)
}

// pinnedSeries holds one analysis × metric over pinnedStore.
type pinnedSeries struct {
	name                     string
	run                      func(*agg.Store) Series
	totalBytes, coveredBytes int64
	// baselines by prefix, Float64bits (degradation only).
	baselines map[string]uint64
	points    []pinnedPoint
}

var pinnedResults = []pinnedSeries{
	{
		name:       "Degradation/MinRTTP50",
		run:        func(st *agg.Store) Series { return Degradation(st, MetricMinRTT).Series },
		totalBytes: 315000, coveredBytes: 305000,
		baselines: map[string]uint64{"10.0.0.0/24": 0x403ee00000000000, "10.0.1.0/24": 0x4037000000000000, "10.0.2.0/24": 0x4044d66666666666},
		points: []pinnedPoint{
			{"10.0.0.0/24", 0, 0x0, 0xbfd8000000000000, 0x3fd8000000000000, true, true, -1},                // 0 [-0.375, 0.375] bytes=40000
			{"10.0.0.0/24", 1, 0x0, 0xbfd8000000000000, 0x3fd8000000000000, true, true, -1},                // 0 [-0.375, 0.375] bytes=40000
			{"10.0.0.0/24", 2, 0x3fc0000000000000, 0xbfc0000000000000, 0x3fd8000000000000, true, true, -1}, // 0.125 [-0.125, 0.375] bytes=60000
			{"10.0.0.0/24", 3, 0x0, 0x0, 0x0, false, false, -1},                                            // 0 [0, 0] bytes=10000
			{"10.0.1.0/24", 0, 0x0, 0xbfd28ba2e8ba2e80, 0x3fd28ba2e8ba2e80, true, true, -1},                // 0 [-0.2897727272727266, 0.2897727272727266] bytes=45000
			{"10.0.2.0/24", 0, 0xbfe9999999999980, 0xbff2ccccccccccc0, 0xbfdb333333333300, true, true, -1}, // -0.7999999999999972 [-1.1749999999999972, -0.42499999999999716] bytes=40000
			{"10.0.2.0/24", 1, 0x40099999999999a0, 0x40069999999999a0, 0x400c9999999999a0, true, true, -1}, // 3.200000000000003 [2.825000000000003, 3.575000000000003] bytes=40000
			{"10.0.2.0/24", 2, 0x401cccccccccccd0, 0x401b4cccccccccd0, 0x401e4cccccccccd0, true, true, -1}, // 7.200000000000003 [6.825000000000003, 7.575000000000003] bytes=40000
		},
	},
	{
		name:       "Degradation/HDratioP50",
		run:        func(st *agg.Store) Series { return Degradation(st, MetricHDratio).Series },
		totalBytes: 315000, coveredBytes: 265000,
		baselines: map[string]uint64{"10.0.0.0/24": 0x3ff0000000000000, "10.0.1.0/24": 0x3fe8000000000000, "10.0.2.0/24": 0x3feccccccccccccd},
		points: []pinnedPoint{
			{"10.0.0.0/24", 0, 0x0, 0x0, 0x0, true, true, -1},                                              // 0 [0, 0] bytes=40000
			{"10.0.0.0/24", 1, 0x0, 0x0, 0x0, true, true, -1},                                              // 0 [0, 0] bytes=40000
			{"10.0.0.0/24", 2, 0x3fe0000000000000, 0x3fe0000000000000, 0x3fe0000000000000, true, true, -1}, // 0.5 [0.5, 0.5] bytes=60000
			{"10.0.0.0/24", 3, 0x0, 0x0, 0x0, false, false, -1},                                            // 0 [0, 0] bytes=10000
			{"10.0.1.0/24", 0, 0x0, 0x0, 0x0, true, true, -1},                                              // 0 [0, 0] bytes=45000
			{"10.0.2.0/24", 0, 0xbfb9999999999998, 0xbfb9999999999998, 0xbfb9999999999998, true, true, -1}, // -0.09999999999999998 [-0.09999999999999998, -0.09999999999999998] bytes=40000
			{"10.0.2.0/24", 1, 0x0, 0x0, 0x0, false, false, -1},                                            // 0 [0, 0] bytes=40000
			{"10.0.2.0/24", 2, 0x3fd999999999999a, 0x3fd999999999999a, 0x3fd999999999999a, true, true, -1}, // 0.4 [0.4, 0.4] bytes=40000
		},
	},
	{
		name:       "Opportunity/MinRTTP50",
		run:        func(st *agg.Store) Series { return Opportunity(st, MetricMinRTT).Series },
		totalBytes: 490000, coveredBytes: 390000,
		points: []pinnedPoint{
			{"10.0.0.0/24", 0, 0x4023c00000000000, 0x4022a85eebb8622f, 0x4024d7a114479dd1, true, true, 1},  // 9.875 [9.328849188096767, 10.421150811903233] bytes=110000
			{"10.0.0.0/24", 1, 0x4027c00000000000, 0x4026a85eebb8622f, 0x4028d7a114479dd1, true, false, 1}, // 11.875 [11.328849188096767, 12.421150811903233] bytes=75000
			{"10.0.0.0/24", 2, 0x4001000000000000, 0x3ffac9f52ee7a983, 0x40049b05688c2b3e, true, true, 1},  // 2.125 [1.6743060905670013, 2.5756939094329985] bytes=205000
			{"10.0.0.0/24", 3, 0x0, 0x0, 0x0, false, false, -1},                                            // 0 [0, 0] bytes=45000
			{"10.0.3.0/24", 0, 0x0, 0x0, 0x0, false, false, -1},                                            // 0 [0, 0] bytes=47000
			{"10.0.3.0/24", 1, 0x0, 0x0, 0x0, false, false, -1},                                            // 0 [0, 0] bytes=8000
		},
	},
	{
		name:       "Opportunity/HDratioP50",
		run:        func(st *agg.Store) Series { return Opportunity(st, MetricHDratio).Series },
		totalBytes: 490000, coveredBytes: 390000,
		points: []pinnedPoint{
			{"10.0.0.0/24", 0, 0x0, 0x0, 0x0, true, true, 1},                                              // 0 [0, 0] bytes=110000
			{"10.0.0.0/24", 1, 0xbfe8000000000000, 0xbfe8000000000000, 0xbfe8000000000000, true, true, 1}, // -0.75 [-0.75, -0.75] bytes=75000
			{"10.0.0.0/24", 2, 0x3fe0000000000000, 0x3fe0000000000000, 0x3fe0000000000000, true, true, 1}, // 0.5 [0.5, 0.5] bytes=205000
			{"10.0.0.0/24", 3, 0x0, 0x0, 0x0, false, false, -1},                                           // 0 [0, 0] bytes=45000
			{"10.0.3.0/24", 0, 0x0, 0x0, 0x0, false, false, -1},                                           // 0 [0, 0] bytes=47000
			{"10.0.3.0/24", 1, 0x0, 0x0, 0x0, false, false, -1},                                           // 0 [0, 0] bytes=8000
		},
	},
}

// TestSeriesPinnedToParent holds every point of both analyses × both
// metrics to the bits the per-metric code paths produced, on the cases
// no rendered golden reaches: interval bounds, the guard, the best
// alternate; a median equal to its baseline (+0 in both orientations —
// a build that negates a result instead of swapping the operands says
// −0, and report.F prints the sign); a window that counts toward the
// baseline on sessions but cannot be compared on HDratio-defined ones;
// a group with no baseline, absent and contributing no bytes.
func TestSeriesPinnedToParent(t *testing.T) {
	for _, want := range pinnedResults {
		t.Run(want.name, func(t *testing.T) {
			got := want.run(pinnedStore())
			if got.TotalBytes != want.totalBytes || got.CoveredBytes != want.coveredBytes {
				t.Errorf("bytes covered/total = %d/%d, want %d/%d", got.CoveredBytes, got.TotalBytes, want.coveredBytes, want.totalBytes)
			}
			var pts []pinnedPoint
			baselines := map[string]uint64{}
			for _, g := range got.Groups {
				prefix := g.Group.Key.Prefix
				if want.baselines != nil {
					baselines[prefix] = math.Float64bits(g.Baseline)
				}
				for _, pt := range g.Points {
					pts = append(pts, pinnedPoint{prefix, pt.Window,
						math.Float64bits(pt.Diff), math.Float64bits(pt.Lo), math.Float64bits(pt.Hi),
						pt.Valid, pt.HDGuardOK, pt.AltIndex})
				}
			}
			for prefix, b := range want.baselines {
				if baselines[prefix] != b {
					t.Errorf("%s: baseline %#x, want %#x", prefix, baselines[prefix], b)
				}
			}
			if len(baselines) != len(want.baselines) {
				t.Errorf("groups with a baseline: %v, want %v", baselines, want.baselines)
			}
			if len(pts) != len(want.points) {
				t.Fatalf("%d points, want %d", len(pts), len(want.points))
			}
			for i, w := range want.points {
				if pts[i] != w {
					t.Errorf("point %d:\n got %v\nwant %v", i, pts[i], w)
				}
			}
		})
	}
}

// TestBestAlternateIsAFunctionOfTheData: preferred HDratioP50 0.5, two
// alternates at 1.0 — an opportunity event either way, and a tie at the
// best difference. The most preferred alternate wins it, every time;
// ranging over the Routes map picked whichever the runtime yielded first
// (alternate 2 in 26 of 200 runs), and Table 2 would print a different
// relationship pair for it.
func TestBestAlternateIsAFunctionOfTheData(t *testing.T) {
	st := agg.NewStore()
	p := "10.5.0.0/24"
	cell(st, p, 0, 0, 60, 30, 2, 4)
	cell(st, p, 0, 1, 40, 30, 4, 4)
	cell(st, p, 0, 2, 60, 30, 10, 10)
	cell(st, p, 0, 2, 25, 30, 9, 10)

	type outcome struct {
		alt    int
		lo, hi float64
		pair   RelPair
	}
	seen := map[outcome]int{}
	for i := 0; i < 200; i++ {
		res := Opportunity(st, MetricHDratio)
		pt := res.Groups[0].Points[0]
		if !pt.Event(0.05) {
			t.Fatalf("run %d: no opportunity event: %+v", i, pt)
		}
		tbl := res.Relationships(0.05)
		if len(tbl.Pairs) != 1 {
			t.Fatalf("run %d: Table 2 names %d pairs, want 1", i, len(tbl.Pairs))
		}
		o := outcome{alt: pt.AltIndex, lo: pt.Lo, hi: pt.Hi}
		for pair := range tbl.Pairs {
			o.pair = pair
		}
		seen[o]++
	}
	want := outcome{alt: 1, lo: 0.5, hi: 0.5, pair: RelPair{Pref: bgp.PrivatePeer, Alt: bgp.Transit}}
	if len(seen) != 1 || seen[want] != 200 {
		t.Errorf("200 runs over one store: outcomes %+v, want only %+v", seen, want)
	}
}
