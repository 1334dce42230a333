package agg

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/sample"
)

func mkSample(prefix string, win int, alt int, rtt time.Duration, hdT, hdA int, bytes int64) sample.Sample {
	return sample.Sample{
		PoP: "ams", Prefix: prefix, Country: "DE", Continent: geo.Europe,
		AltIndex: alt, Start: time.Duration(win)*WindowDuration + time.Minute,
		MinRTT: rtt, HDTested: hdT, HDAchieved: hdA, Bytes: bytes,
		RouteID: fmt.Sprintf("r%d", alt), RouteRel: bgp.PrivatePeer,
	}
}

func TestWindowOf(t *testing.T) {
	tests := []struct {
		at   time.Duration
		want int
	}{
		{0, 0},
		{14 * time.Minute, 0},
		{15 * time.Minute, 1},
		{24 * time.Hour, 96},
	}
	for _, tt := range tests {
		if got := WindowOf(tt.at); got != tt.want {
			t.Errorf("WindowOf(%v) = %d, want %d", tt.at, got, tt.want)
		}
	}
}

func TestStoreGroupsByKeyWindowRoute(t *testing.T) {
	st := NewStore()
	st.Add(mkSample("10.0.0.0/24", 0, 0, 20*time.Millisecond, 1, 1, 100))
	st.Add(mkSample("10.0.0.0/24", 0, 1, 30*time.Millisecond, 1, 0, 200))
	st.Add(mkSample("10.0.0.0/24", 1, 0, 25*time.Millisecond, 0, 0, 300))
	st.Add(mkSample("10.0.1.0/24", 0, 0, 50*time.Millisecond, 2, 1, 400))

	if st.Len() != 2 {
		t.Fatalf("groups = %d, want 2", st.Len())
	}
	if st.TotalWindows != 2 {
		t.Errorf("TotalWindows = %d, want 2", st.TotalWindows)
	}
	if st.TotalSamples != 4 {
		t.Errorf("TotalSamples = %d", st.TotalSamples)
	}

	g := st.Group(sample.GroupKey{PoP: "ams", Prefix: "10.0.0.0/24", Country: "DE"})
	if g == nil {
		t.Fatal("group missing")
	}
	if len(g.Windows) != 2 {
		t.Errorf("windows = %d, want 2", len(g.Windows))
	}
	if g.Windows[0].Route(0).Sessions != 1 || g.Windows[0].Route(1).Sessions != 1 {
		t.Error("route split wrong")
	}
	if g.Windows[0].Route(2) != nil {
		t.Error("phantom route")
	}
	// Preferred bytes: 100 (win0) + 300 (win1), not the alternate's 200.
	if g.PreferredBytes != 400 {
		t.Errorf("PreferredBytes = %d, want 400", g.PreferredBytes)
	}
}

func TestAggregationMedians(t *testing.T) {
	st := NewStore()
	r := rng.New(1)
	for i := 0; i < 500; i++ {
		rtt := time.Duration(r.LogNormalMedian(40, 0.3)) * time.Millisecond
		hdT, hdA := 2, 0
		if i%2 == 0 {
			hdA = 2 // half the sessions fully achieve
		}
		st.Add(mkSample("10.0.0.0/24", 0, 0, rtt, hdT, hdA, 1000))
	}
	a := st.Groups()[0].Windows[0].Route(0)
	if med := a.MinRTTP50(); med < 35 || med > 45 {
		t.Errorf("MinRTTP50 = %v, want ~40", med)
	}
	if hd := a.HDratioP50(); hd < 0 || hd > 1 {
		t.Errorf("HDratioP50 = %v out of range", hd)
	}
	if !a.HasMinSamples() {
		t.Error("500 sessions should meet the sample floor")
	}
}

func TestHDratioExcludesUntestedSessions(t *testing.T) {
	st := NewStore()
	// 50 untested sessions and 10 tested-and-failed.
	for i := 0; i < 50; i++ {
		st.Add(mkSample("10.0.0.0/24", 0, 0, 20*time.Millisecond, 0, 0, 100))
	}
	for i := 0; i < 10; i++ {
		st.Add(mkSample("10.0.0.0/24", 0, 0, 20*time.Millisecond, 1, 0, 100))
	}
	a := st.Groups()[0].Windows[0].Route(0)
	if got := a.HD.Count(); got != 10 {
		t.Errorf("HD digest count = %v, want 10 (untested excluded)", got)
	}
	if hd := a.HDratioP50(); hd != 0 {
		t.Errorf("HDratioP50 = %v, want 0", hd)
	}
	// MinRTT still counts everyone.
	if got := a.MinRTT.Count(); got != 60 {
		t.Errorf("MinRTT count = %v, want 60", got)
	}
}

func TestRouteMetaCaptured(t *testing.T) {
	st := NewStore()
	s := mkSample("10.0.0.0/24", 0, 1, 20*time.Millisecond, 0, 0, 1)
	s.RouteRel = bgp.Transit
	s.ASPathLen = 3
	s.Prepended = true
	st.Add(s)
	g := st.Groups()[0]
	meta := g.RouteMeta[1]
	if meta.Rel != bgp.Transit || meta.ASPathLen != 3 || !meta.Prepended {
		t.Errorf("RouteMeta = %+v", meta)
	}
}

func TestGroupsSortedDeterministically(t *testing.T) {
	st := NewStore()
	st.Add(mkSample("10.0.2.0/24", 0, 0, time.Millisecond, 0, 0, 1))
	st.Add(mkSample("10.0.1.0/24", 0, 0, time.Millisecond, 0, 0, 1))
	st.Add(mkSample("10.0.3.0/24", 0, 0, time.Millisecond, 0, 0, 1))
	gs := st.Groups()
	for i := 1; i < len(gs); i++ {
		if gs[i-1].Key.String() >= gs[i].Key.String() {
			t.Fatal("groups not sorted")
		}
	}
}

// Groups sorts by GroupKey.Compare, formatting no key: its one
// allocation is the slice it returns.
func TestGroupsAllocatesOnlyItsResult(t *testing.T) {
	st := NewStore()
	for _, p := range []string{"10.0.2.0/24", "10.0.1.0/24", "10.0.10.0/24", "10.1.0.0/16", "10.0.1.0/25"} {
		st.Add(mkSample(p, 0, 0, time.Millisecond, 0, 0, 1))
	}
	if allocs := testing.AllocsPerRun(100, func() { st.Groups() }); allocs != 1 {
		t.Fatalf("Store.Groups() allocates %v times, want 1", allocs)
	}
}

func TestCoverageFraction(t *testing.T) {
	st := NewStore()
	for win := 0; win < 6; win++ {
		st.Add(mkSample("10.0.0.0/24", win, 0, time.Millisecond, 0, 0, 1))
	}
	st.Add(mkSample("10.0.1.0/24", 9, 0, time.Millisecond, 0, 0, 1)) // sets TotalWindows=10
	g := st.Group(sample.GroupKey{PoP: "ams", Prefix: "10.0.0.0/24", Country: "DE"})
	if cf := g.CoverageFraction(st.TotalWindows); math.Abs(cf-0.6) > 1e-9 {
		t.Errorf("coverage = %v, want 0.6", cf)
	}
	if cf := g.CoverageFraction(0); cf != 0 {
		t.Errorf("coverage with zero windows = %v", cf)
	}
}

func TestWindowIndexesSorted(t *testing.T) {
	st := NewStore()
	for _, win := range []int{5, 1, 3} {
		st.Add(mkSample("10.0.0.0/24", win, 0, time.Millisecond, 0, 0, 1))
	}
	g := st.Groups()[0]
	idx := g.WindowIndexes()
	want := []int{1, 3, 5}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("WindowIndexes = %v", idx)
		}
	}
}

func TestTotalPreferredBytes(t *testing.T) {
	st := NewStore()
	st.Add(mkSample("10.0.0.0/24", 0, 0, time.Millisecond, 0, 0, 100))
	st.Add(mkSample("10.0.1.0/24", 0, 0, time.Millisecond, 0, 0, 250))
	st.Add(mkSample("10.0.1.0/24", 0, 2, time.Millisecond, 0, 0, 999)) // alternate: excluded
	if got := st.TotalPreferredBytes(); got != 350 {
		t.Errorf("TotalPreferredBytes = %d, want 350", got)
	}
}
