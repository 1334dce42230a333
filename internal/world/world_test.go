package world

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sample"
)

var (
	testWorldOnce    sync.Once
	testWorldCached  *World
	testSamplesCache []sample.Sample
)

// testWorld builds a small but statistically useful world, cached across
// tests in this package (generation costs a second or two).
func testWorld(t testing.TB) (*World, []sample.Sample) {
	t.Helper()
	testWorldOnce.Do(func() {
		cfg := Config{Seed: 7, Groups: 1000, Days: 1, SessionsPerGroupWindow: 1.5}
		testWorldCached = New(cfg)
		testSamplesCache = testWorldCached.GenerateAll()
	})
	return testWorldCached, testSamplesCache
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 {
		return 0
	}
	return s[len(s)/2]
}

func TestWorldBuildDeterministic(t *testing.T) {
	a := New(Config{Seed: 3, Groups: 20, Days: 1})
	b := New(Config{Seed: 3, Groups: 20, Days: 1})
	for i := range a.Groups {
		ga, gb := a.Groups[i], b.Groups[i]
		if ga.Prefix != gb.Prefix || ga.BaseRTT != gb.BaseRTT || ga.PoP != gb.PoP ||
			len(ga.Routes) != len(gb.Routes) {
			t.Fatalf("group %d differs between same-seed builds", i)
		}
	}
	c := New(Config{Seed: 4, Groups: 20, Days: 1})
	same := 0
	for i := range a.Groups {
		if a.Groups[i].BaseRTT == c.Groups[i].BaseRTT {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/20 identical groups", same)
	}
}

func TestGroupInvariants(t *testing.T) {
	w := New(Config{Seed: 5, Groups: 200, Days: 1})
	prefixes := map[string]bool{}
	for _, g := range w.Groups {
		if prefixes[g.Prefix] {
			t.Errorf("duplicate prefix %s", g.Prefix)
		}
		prefixes[g.Prefix] = true
		if len(g.Routes) < 1 {
			t.Fatalf("group %s has no routes", g.Prefix)
		}
		if len(g.Routes) > 1+w.Cfg.AlternateRoutes {
			t.Errorf("group %s has %d routes, cap is preferred+%d", g.Prefix, len(g.Routes), w.Cfg.AlternateRoutes)
		}
		if g.Routes[0].RTTDelta != 0 {
			t.Errorf("preferred route has nonzero delta")
		}
		for _, rc := range g.Routes[1:] {
			if rc.RTTDelta < 0 {
				t.Errorf("alternate with negative static delta; opportunity must come from OppClass")
			}
		}
		if g.BaseRTT <= 0 || g.Access <= 0 {
			t.Errorf("group %s has degenerate conditions: %v %v", g.Prefix, g.BaseRTT, g.Access)
		}
		if g.DegradeClass != Uneventful && g.DegradeRTT <= 0 {
			t.Errorf("degraded group %s without severity", g.Prefix)
		}
		if g.OppClass != Uneventful && g.OppRTT <= 0 {
			t.Errorf("opportunity group %s without delta", g.Prefix)
		}
	}
}

func TestDatasetDeterministic(t *testing.T) {
	cfg := Config{Seed: 11, Groups: 10, Days: 1, SessionsPerGroupWindow: 2}
	a := New(cfg).GenerateAll()
	b := New(cfg).GenerateAll()
	if len(a) != len(b) {
		t.Fatalf("sample counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].SessionID != b[i].SessionID || a[i].MinRTT != b[i].MinRTT ||
			a[i].Bytes != b[i].Bytes || a[i].HDTested != b[i].HDTested {
			t.Fatalf("sample %d differs between same-seed runs", i)
		}
	}
}

func TestFig6Calibration(t *testing.T) {
	_, samples := testWorld(t)
	if len(samples) < 20000 {
		t.Fatalf("dataset too small for calibration: %d", len(samples))
	}

	// Figures 6: preferred-route sessions only (§2.2.3).
	byCont := map[geo.Continent][]time.Duration{}
	var all []time.Duration
	hdZero, hdOne, hdDefined := 0, 0, 0
	hdZeroByCont := map[geo.Continent][2]int{}
	for _, s := range samples {
		if s.AltIndex != 0 || s.HostingProvider {
			continue
		}
		all = append(all, s.MinRTT)
		byCont[s.Continent] = append(byCont[s.Continent], s.MinRTT)
		if hd, ok := s.HDratio(); ok {
			hdDefined++
			pair := hdZeroByCont[s.Continent]
			pair[1]++
			if hd == 0 {
				hdZero++
				pair[0]++
			}
			if hd == 1 {
				hdOne++
			}
			hdZeroByCont[s.Continent] = pair
		}
	}

	// Global MinRTT median just under 40 ms (paper: 39 ms).
	if m := medianDur(all); m < 30*time.Millisecond || m > 50*time.Millisecond {
		t.Errorf("global MinRTT median = %v, want ~39ms", m)
	}
	// p80 below ~90 ms (paper: 78 ms).
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p80 := all[len(all)*8/10]
	if p80 < 60*time.Millisecond || p80 > 100*time.Millisecond {
		t.Errorf("global MinRTT p80 = %v, want ~78ms", p80)
	}

	// Continent ordering: AF > AS > SA > {EU, NA, OC} (Figure 6b).
	med := func(c geo.Continent) time.Duration { return medianDur(byCont[c]) }
	if !(med(geo.Africa) > med(geo.SouthAmerica) && med(geo.Asia) > med(geo.SouthAmerica)) {
		t.Errorf("continent ordering broken: AF=%v AS=%v SA=%v", med(geo.Africa), med(geo.Asia), med(geo.SouthAmerica))
	}
	for _, c := range []geo.Continent{geo.Europe, geo.NorthAmerica, geo.Oceania} {
		if med(c) >= med(geo.SouthAmerica) {
			t.Errorf("%s median %v not below SA %v", c, med(c), med(geo.SouthAmerica))
		}
		if med(c) > 40*time.Millisecond {
			t.Errorf("%s median %v, want ≤~28ms", c, med(c))
		}
	}
	if m := med(geo.Africa); m < 45*time.Millisecond || m > 75*time.Millisecond {
		t.Errorf("AF median %v, want ~58ms", m)
	}

	// HDratio: >0 for ~82% of sessions, =1 for ~60% (Figure 6a).
	zeroShare := float64(hdZero) / float64(hdDefined)
	oneShare := float64(hdOne) / float64(hdDefined)
	if zeroShare < 0.10 || zeroShare > 0.26 {
		t.Errorf("HDratio=0 share = %.3f, want ~0.18", zeroShare)
	}
	if oneShare < 0.50 || oneShare > 0.75 {
		t.Errorf("HDratio=1 share = %.3f, want ~0.60", oneShare)
	}

	// HDratio-zero share ordering per continent (Figure 6c): AF worst.
	zs := func(c geo.Continent) float64 {
		p := hdZeroByCont[c]
		if p[1] == 0 {
			return math.NaN()
		}
		return float64(p[0]) / float64(p[1])
	}
	if zs(geo.Africa) < zs(geo.Europe) || zs(geo.Africa) < zs(geo.NorthAmerica) {
		t.Errorf("AF zero-share %.3f not worst (EU %.3f, NA %.3f)", zs(geo.Africa), zs(geo.Europe), zs(geo.NorthAmerica))
	}
	if zs(geo.Africa) < 0.22 || zs(geo.Africa) > 0.50 {
		t.Errorf("AF zero-share = %.3f, want ~0.36", zs(geo.Africa))
	}
	t.Logf("global med=%v p80=%v | AF=%v AS=%v SA=%v EU=%v NA=%v OC=%v | hd0=%.3f hd1=%.3f afz=%.2f asz=%.2f saz=%.2f",
		medianDur(all), p80, med(geo.Africa), med(geo.Asia), med(geo.SouthAmerica),
		med(geo.Europe), med(geo.NorthAmerica), med(geo.Oceania), zeroShare, oneShare,
		zs(geo.Africa), zs(geo.Asia), zs(geo.SouthAmerica))
}

// TestServingLocality checks §2.1's anchors: most traffic close to its
// PoP, ~10% served cross-continent.
func TestServingLocality(t *testing.T) {
	w, _ := testWorld(t)
	var within500, within2500, cross, totalW float64
	for _, g := range w.Groups {
		totalW += g.Weight
		if g.DistanceKm <= 500 {
			within500 += g.Weight
		}
		if g.DistanceKm <= 2500 {
			within2500 += g.Weight
		}
		if g.CrossContinent {
			cross += g.Weight
		}
	}
	if f := within500 / totalW; f < 0.40 || f > 0.80 {
		t.Errorf("traffic within 500km = %.3f, paper ~0.50", f)
	}
	if f := within2500 / totalW; f < 0.85 {
		t.Errorf("traffic within 2500km = %.3f, paper ~0.90", f)
	}
	if f := cross / totalW; f < 0.04 || f > 0.20 {
		t.Errorf("cross-continent share = %.3f, paper ~0.10", f)
	}
}

func TestRoutePinningShares(t *testing.T) {
	_, samples := testWorld(t)
	counts := map[int]int{}
	multi := 0
	for _, s := range samples {
		counts[s.AltIndex]++
		if s.AltIndex > 0 {
			multi++
		}
	}
	total := len(samples)
	prefShare := float64(counts[0]) / float64(total)
	if prefShare < 0.42 || prefShare > 0.56 {
		t.Errorf("preferred-route share = %.3f, want ~0.47", prefShare)
	}
	if counts[1] == 0 || counts[2] == 0 {
		t.Errorf("alternate routes unsampled: %v", counts)
	}
}

func TestHostingShare(t *testing.T) {
	_, samples := testWorld(t)
	n := 0
	for _, s := range samples {
		if s.HostingProvider {
			n++
		}
	}
	share := float64(n) / float64(len(samples))
	if share < 0.01 || share > 0.035 {
		t.Errorf("hosting share = %.4f, want ~0.02", share)
	}
}

func TestSamplesWellFormed(t *testing.T) {
	w, samples := testWorld(t)
	windows := w.Cfg.Windows()
	for _, s := range samples {
		if s.MinRTT <= 0 {
			t.Fatalf("sample with non-positive MinRTT: %+v", s)
		}
		if s.HDAchieved > s.HDTested {
			t.Fatalf("achieved > tested: %+v", s)
		}
		if s.Transactions <= 0 || s.Bytes <= 0 {
			t.Fatalf("degenerate session: %+v", s)
		}
		if s.BusyFraction < 0 || s.BusyFraction > 1 {
			t.Fatalf("busy fraction out of range: %v", s.BusyFraction)
		}
		if win := int(s.Start / WindowDuration); win < 0 || win >= windows {
			t.Fatalf("start %v outside dataset", s.Start)
		}
		if s.Prefix == "" || s.PoP == "" || s.Country == "" {
			t.Fatalf("missing identity: %+v", s)
		}
	}
}

func TestDiurnalActivityVariesLoad(t *testing.T) {
	_, samples := testWorld(t)
	perHour := make([]int, 24)
	for _, s := range samples {
		perHour[int(s.Start/time.Hour)%24]++
	}
	min, max := perHour[0], perHour[0]
	for _, n := range perHour {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if float64(max) < 1.15*float64(min) {
		t.Errorf("no diurnal load variation: min=%d max=%d", min, max)
	}
}

func TestFig1bBusyTime(t *testing.T) {
	// Figure 1b: most sessions are idle most of their lifetime; ~75-80%
	// of sessions are active less than 10% of the time.
	_, samples := testWorld(t)
	lowBusy := 0
	for _, s := range samples {
		if s.BusyFraction < 0.10 {
			lowBusy++
		}
	}
	share := float64(lowBusy) / float64(len(samples))
	if share < 0.60 || share > 0.95 {
		t.Errorf("sessions active <10%% of lifetime = %.3f, want ~0.75-0.80", share)
	}
}

func TestContinentTrafficShares(t *testing.T) {
	_, samples := testWorld(t)
	counts := map[geo.Continent]int{}
	for _, s := range samples {
		counts[s.Continent]++
	}
	tot := float64(len(samples))
	for cont, prof := range Profiles {
		share := float64(counts[cont]) / tot
		// Zipf-ish group weights make shares noisy at 150 groups.
		if share < prof.TrafficShare*0.3 || share > prof.TrafficShare*2.5 {
			t.Errorf("%s session share %.3f, profile %.3f", cont, share, prof.TrafficShare)
		}
	}
}

func BenchmarkGenerateGroupDay(b *testing.B) {
	w := New(Config{Seed: 1, Groups: 8, Days: 1, SessionsPerGroupWindow: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.GenerateGroup(i%len(w.Groups), func(s sample.Sample) {})
	}
}

// TestPolicedShareSuppressesHD: groups behind sub-HD policers fail the
// HD check regardless of their nominal access bandwidth (§4).
func TestPolicedShareSuppressesHD(t *testing.T) {
	run := func(policed float64, seed uint64) float64 {
		w := New(Config{Seed: seed, Groups: 20, Days: 1, SessionsPerGroupWindow: 3, PolicedShare: policed})
		zero, defined := 0, 0
		for _, s := range w.GenerateAll() {
			if s.AltIndex != 0 {
				continue
			}
			if hd, ok := s.HDratio(); ok {
				defined++
				if hd == 0 {
					zero++
				}
			}
		}
		if defined == 0 {
			t.Fatal("no tested sessions")
		}
		return float64(zero) / float64(defined)
	}
	base := run(0, 33)
	policed := run(1.0, 33)
	if policed < base+0.15 {
		t.Errorf("policing everyone raised zero-HD share only %.3f → %.3f", base, policed)
	}
}
