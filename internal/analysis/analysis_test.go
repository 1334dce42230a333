package analysis

import (
	"math"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/sample"
)

// addWindow populates one (group, window, route) aggregation with n
// sessions at roughly the given RTT (ms) and HDratio.
func addWindow(st *agg.Store, prefix string, win, alt int, n int, rttMs float64, hd float64, r *rng.RNG, rel bgp.RelType, pathLen int, prepended bool) {
	for i := 0; i < n; i++ {
		tested, achieved := 4, int(math.Round(hd*4))
		s := sample.Sample{
			PoP: "ams", Prefix: prefix, Country: "DE", Continent: geo.Europe,
			AltIndex: alt,
			Start:    time.Duration(win)*agg.WindowDuration + time.Duration(i)*time.Second,
			MinRTT:   time.Duration((rttMs + r.Normal(0, 1)) * float64(time.Millisecond)),
			HDTested: tested, HDAchieved: achieved,
			Bytes:   1000,
			RouteID: prefix + "-r", RouteRel: rel, ASPathLen: pathLen, Prepended: prepended,
		}
		st.Add(s)
	}
}

const testWindows = 96 * 5 // 5 days

// buildDegradedStore builds one group per degradation pattern.
func buildDegradedStore() *agg.Store {
	st := agg.NewStore()
	r := rng.New(1)
	for win := 0; win < testWindows; win++ {
		hour := (win / 4) % 24

		// stable: constant 20ms.
		addWindow(st, "10.0.0.0/24", win, 0, 40, 20, 1, r, bgp.PrivatePeer, 1, false)

		// diurnal: +15ms during hours 19-22 every day.
		rtt := 20.0
		if hour >= 19 && hour < 23 {
			rtt = 35
		}
		addWindow(st, "10.0.1.0/24", win, 0, 40, rtt, 1, r, bgp.PrivatePeer, 1, false)

		// episodic: +25ms during two short episodes.
		rtt = 20
		if (win >= 100 && win < 110) || (win >= 300 && win < 305) {
			rtt = 45
		}
		addWindow(st, "10.0.2.0/24", win, 0, 40, rtt, 1, r, bgp.PrivatePeer, 1, false)

		// continuous: always 15ms above its p10 baseline — rtt oscillates
		// so the baseline (p10) sits at 20 and most windows sit at 40.
		rtt = 40
		if win%6 == 0 {
			rtt = 20
		}
		addWindow(st, "10.0.3.0/24", win, 0, 40, rtt, 1, r, bgp.PrivatePeer, 1, false)
	}
	return st
}

func classOf(t *testing.T, res DegradationResult, store *agg.Store, prefix string, threshold float64) Class {
	t.Helper()
	p := DefaultClassifyParams(5)
	for _, g := range res.Groups {
		if g.Group.Key.Prefix != prefix {
			continue
		}
		verdicts := make([]WindowVerdict, len(g.Points))
		var present int
		for i, pt := range g.Points {
			verdicts[i] = WindowVerdict{Window: pt.Window, Valid: pt.Valid, Event: pt.Event(threshold), Bytes: pt.Bytes}
			present++
		}
		return Classify(verdicts, present, store.TotalWindows, p)
	}
	t.Fatalf("group %s not found", prefix)
	return Unclassified
}

func TestDegradationClasses(t *testing.T) {
	st := buildDegradedStore()
	res := Degradation(st, MetricMinRTT)
	if len(res.Groups) != 4 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	if got := classOf(t, res, st, "10.0.0.0/24", 5); got != Uneventful {
		t.Errorf("stable group classified %v", got)
	}
	if got := classOf(t, res, st, "10.0.1.0/24", 5); got != Diurnal {
		t.Errorf("diurnal group classified %v", got)
	}
	if got := classOf(t, res, st, "10.0.2.0/24", 5); got != Episodic {
		t.Errorf("episodic group classified %v", got)
	}
	if got := classOf(t, res, st, "10.0.3.0/24", 5); got != Continuous {
		t.Errorf("continuous group classified %v", got)
	}
}

func TestDegradationAmounts(t *testing.T) {
	st := buildDegradedStore()
	res := Degradation(st, MetricMinRTT)
	for _, g := range res.Groups {
		if g.Group.Key.Prefix != "10.0.1.0/24" {
			continue
		}
		// Baseline must sit near the quiet 20 ms level.
		if g.Baseline < 18 || g.Baseline > 23 {
			t.Errorf("baseline = %v, want ~20", g.Baseline)
		}
		// Peak-hour windows must degrade by ~15 ms.
		var peak, quiet int
		for _, pt := range g.Points {
			hour := (pt.Window / 4) % 24
			if hour >= 19 && hour < 23 {
				if pt.Valid && pt.Diff > 10 {
					peak++
				}
			} else if pt.Valid && pt.Diff < 5 {
				quiet++
			}
		}
		if peak < 50 {
			t.Errorf("only %d peak windows showed degradation", peak)
		}
		if quiet < 300 {
			t.Errorf("only %d quiet windows were clean", quiet)
		}
	}
}

func TestDegradationCoverage(t *testing.T) {
	st := buildDegradedStore()
	res := Degradation(st, MetricMinRTT)
	cov := float64(res.CoveredBytes) / float64(res.TotalBytes)
	if cov < 0.9 {
		t.Errorf("coverage = %v, want ≥0.9 with 40 samples per window", cov)
	}
}

func TestDegradationClassTable(t *testing.T) {
	st := buildDegradedStore()
	res := Degradation(st, MetricMinRTT)
	tbl := res.Classify(st.TotalWindows, DefaultClassifyParams(5), []float64{5, 10, 20, 50})
	// At the 5 ms threshold: 4 equal-weight groups → shares ~0.25 each.
	for i, class := range []Class{Uneventful, Diurnal, Episodic, Continuous} {
		_ = i
		row := tbl.Overall[class][0]
		if row.GroupTrafficShare < 0.15 || row.GroupTrafficShare > 0.35 {
			t.Errorf("%v group share = %v, want ~0.25", class, row.GroupTrafficShare)
		}
	}
	// Diurnal event traffic is a few hours a day: well below the group share.
	d := tbl.Overall[Diurnal][0]
	if d.EventTrafficShare <= 0 || d.EventTrafficShare >= d.GroupTrafficShare {
		t.Errorf("diurnal event share %v vs group share %v", d.EventTrafficShare, d.GroupTrafficShare)
	}
	// At a 50 ms threshold nothing degrades.
	if got := tbl.Overall[Uneventful][3].GroupTrafficShare; got < 0.95 {
		t.Errorf("at 50ms threshold uneventful share = %v, want ~1", got)
	}
}

func TestDegradationHDratioMetric(t *testing.T) {
	st := agg.NewStore()
	r := rng.New(2)
	for win := 0; win < testWindows; win++ {
		hd := 1.0
		if win >= 200 && win < 280 {
			hd = 0.25 // a long degradation episode
		}
		addWindow(st, "10.9.0.0/24", win, 0, 40, 20, hd, r, bgp.PrivatePeer, 1, false)
	}
	res := Degradation(st, MetricHDratio)
	var deg int
	for _, pt := range res.Groups[0].Points {
		if pt.Valid && pt.Lo > 0.5 {
			deg++
		}
	}
	if deg < 60 {
		t.Errorf("HD degradation detected in %d windows, want ~80", deg)
	}
}

// --- Opportunity ---------------------------------------------------------

func buildOpportunityStore() *agg.Store {
	st := agg.NewStore()
	r := rng.New(3)
	for win := 0; win < testWindows; win++ {
		// Group A: preferred (PNI, 30ms) always beaten by alt 1
		// (transit, 20ms): continuous opportunity of ~10ms.
		addWindow(st, "10.1.0.0/24", win, 0, 40, 30, 1, r, bgp.PrivatePeer, 1, false)
		addWindow(st, "10.1.0.0/24", win, 1, 30, 20, 1, r, bgp.Transit, 2, false)
		addWindow(st, "10.1.0.0/24", win, 2, 30, 40, 1, r, bgp.Transit, 3, true)

		// Group B: preferred optimal (20ms vs 25/28): no opportunity.
		addWindow(st, "10.1.1.0/24", win, 0, 40, 20, 1, r, bgp.PrivatePeer, 1, false)
		addWindow(st, "10.1.1.0/24", win, 1, 30, 25, 1, r, bgp.PublicPeer, 1, false)
		addWindow(st, "10.1.1.0/24", win, 2, 30, 28, 1, r, bgp.Transit, 2, false)

		// Group C: alternate has lower RTT but much worse HDratio → the
		// HD guard must suppress the MinRTT opportunity.
		addWindow(st, "10.1.2.0/24", win, 0, 40, 30, 1, r, bgp.PrivatePeer, 1, false)
		addWindow(st, "10.1.2.0/24", win, 1, 30, 18, 0.25, r, bgp.Transit, 2, false)
	}
	return st
}

func TestOpportunityDetection(t *testing.T) {
	st := buildOpportunityStore()
	res := Opportunity(st, MetricMinRTT)
	byPrefix := map[string]GroupSeries{}
	for _, g := range res.Groups {
		byPrefix[g.Group.Key.Prefix] = g
	}

	a := byPrefix["10.1.0.0/24"]
	events := 0
	for _, pt := range a.Points {
		if pt.Event(5) {
			events++
			if pt.AltIndex != 1 {
				t.Fatalf("best alternate = %d, want 1", pt.AltIndex)
			}
		}
	}
	if events < testWindows*8/10 {
		t.Errorf("continuous opportunity detected in %d/%d windows", events, testWindows)
	}

	b := byPrefix["10.1.1.0/24"]
	for _, pt := range b.Points {
		if pt.Event(5) {
			t.Fatal("optimal group flagged with opportunity")
		}
	}
}

func TestOpportunityHDGuard(t *testing.T) {
	st := buildOpportunityStore()
	res := Opportunity(st, MetricMinRTT)
	for _, g := range res.Groups {
		if g.Group.Key.Prefix != "10.1.2.0/24" {
			continue
		}
		for _, pt := range g.Points {
			if pt.Event(5) {
				t.Fatal("HD guard failed: low-RTT/low-HD alternate counted as opportunity")
			}
		}
		return
	}
	t.Fatal("group missing")
}

func TestOpportunityFractions(t *testing.T) {
	st := buildOpportunityStore()
	res := Opportunity(st, MetricMinRTT)
	f5 := res.FractionImprovableAtLeast(5)
	// Only group A (1/3 of groups, weighted by its window traffic).
	if f5 < 0.15 || f5 > 0.50 {
		t.Errorf("improvable ≥5ms = %v, want ~1/3", f5)
	}
	within := res.FractionWithinOfOptimal(3)
	if within < 0.3 || within > 0.8 {
		t.Errorf("within 3ms of optimal = %v", within)
	}
}

func TestOpportunityHDMetric(t *testing.T) {
	st := agg.NewStore()
	r := rng.New(5)
	for win := 0; win < testWindows; win++ {
		addWindow(st, "10.2.0.0/24", win, 0, 40, 25, 0.4, r, bgp.PrivatePeer, 1, false)
		addWindow(st, "10.2.0.0/24", win, 1, 35, 25, 1.0, r, bgp.Transit, 2, false)
	}
	res := Opportunity(st, MetricHDratio)
	events := 0
	for _, pt := range res.Groups[0].Points {
		if pt.Event(0.05) {
			events++
		}
	}
	if events < testWindows/2 {
		t.Errorf("HD opportunity detected in %d windows", events)
	}
}

func TestRelationshipsTable(t *testing.T) {
	st := buildOpportunityStore()
	res := Opportunity(st, MetricMinRTT)
	tbl := res.Relationships(5)
	pair := RelPair{Pref: bgp.PrivatePeer, Alt: bgp.Transit}
	ro := tbl.Pairs[pair]
	if ro == nil || ro.EventBytes == 0 {
		t.Fatalf("Private→Transit opportunity missing: %+v", tbl.Pairs)
	}
	if tbl.TotalEventBytes != ro.EventBytes {
		t.Errorf("unexpected extra opportunity pairs: %+v", tbl.Pairs)
	}
	// The winning alternate's AS-path (2) is longer than preferred (1).
	if ro.LongerBytes != ro.EventBytes {
		t.Errorf("longer-path accounting: %d of %d", ro.LongerBytes, ro.EventBytes)
	}
}

func TestCompareRelationshipsFig10(t *testing.T) {
	st := buildOpportunityStore()
	cdfs := CompareRelationships(st, MetricMinRTT)
	pvt := cdfs[PeeringVsTransit]
	if pvt == nil || pvt.Total() == 0 {
		t.Fatal("no peering-vs-transit comparisons")
	}
	// Group A: pref 30 vs transit alt 20 → diff +10 (alternate better).
	// Groups B: pref 20 vs transit 28 → diff −8. Group C: 30 vs 18 → +12.
	med := pvt.Quantile(0.5)
	if med < -10 || med > 13 {
		t.Errorf("peering-vs-transit median diff = %v", med)
	}
	if _, ok := cdfs[TransitVsTransit]; ok {
		t.Error("no transit-preferred groups exist; comparison should be absent")
	}
}

// --- Overview ------------------------------------------------------------

func TestOverview(t *testing.T) {
	o := NewOverview()
	o.Add(sample.Sample{
		AltIndex: 0, Continent: geo.Europe, Proto: sample.HTTP2,
		MinRTT: 25 * time.Millisecond, HDTested: 2, HDAchieved: 2,
		SimpleAchieved: 1,
		Duration:       time.Minute, BusyFraction: 0.05,
		Bytes: 5000, Transactions: 3, ResponseBytes: []int64{1000, 3000, 1000},
	})
	o.Add(sample.Sample{
		AltIndex: 0, Continent: geo.Africa, Proto: sample.HTTP1,
		MinRTT: 90 * time.Millisecond, HDTested: 1, HDAchieved: 0,
		Duration: 10 * time.Second, BusyFraction: 0.5,
		Bytes: 2000, Transactions: 60, MediaEndpoint: true, ResponseBytes: []int64{2000},
	})
	o.Add(sample.Sample{ // alternate route: excluded from metrics
		AltIndex: 1, Continent: geo.Europe, Proto: sample.HTTP2,
		MinRTT: 5 * time.Millisecond, HDTested: 1, HDAchieved: 1,
		Duration: time.Second, Bytes: 100, Transactions: 1,
	})
	o.Seal()

	if o.Sessions != 3 {
		t.Errorf("Sessions = %d", o.Sessions)
	}
	if got := o.MinRTT.Count(); got != 2 {
		t.Errorf("MinRTT count = %v, want 2 (alt excluded)", got)
	}
	if o.HDDefined != 2 || o.HDZero != 1 || o.HDOne != 1 {
		t.Errorf("HD counters: defined=%d zero=%d one=%d", o.HDDefined, o.HDZero, o.HDOne)
	}
	if got := o.HDPositiveShare(); got != 0.5 {
		t.Errorf("HDPositiveShare = %v", got)
	}
	if got := o.HDFullShare(); got != 0.5 {
		t.Errorf("HDFullShare = %v", got)
	}
	// Per-continent routing.
	if got := o.PerContinent[geo.Africa].HDZero; got != 1 {
		t.Errorf("AF HDZero = %d", got)
	}
	// RTT bucket: 25ms → bucket 0; 90ms → bucket 3.
	if got := o.HDByRTTBucket[0].Count(); got != 1 {
		t.Errorf("bucket 0 count = %v", got)
	}
	if got := o.HDByRTTBucket[3].Count(); got != 1 {
		t.Errorf("bucket 3 count = %v", got)
	}
	// The 90ms session's HDratio is 0, the 25ms one's is 1.
	if got := o.HDZeroByRTTBucket; got[0] != 0 || got[3] != 1 {
		t.Errorf("zeros per bucket = %v, want [0 0 0 1]", got)
	}
	// Traffic characterisation counts all sessions.
	if got := o.SessionBytes.Count(); got != 3 {
		t.Errorf("SessionBytes count = %v", got)
	}
	if got := o.MediaRespBytes.Count(); got != 1 {
		t.Errorf("MediaRespBytes count = %v", got)
	}
	if o.TotalBytes != 7100 || o.BytesOver50Txns != 2000 {
		t.Errorf("byte accounting: total=%d over50=%d", o.TotalBytes, o.BytesOver50Txns)
	}
}

func TestOverviewEmpty(t *testing.T) {
	o := NewOverview()
	if !math.IsNaN(o.HDPositiveShare()) || !math.IsNaN(o.HDFullShare()) {
		t.Error("empty overview shares should be NaN")
	}
}

// --- Classifier unit tests ------------------------------------------------

func TestClassifyEdgeCases(t *testing.T) {
	p := DefaultClassifyParams(5)
	mk := func(events []int, valid int) []WindowVerdict {
		evSet := map[int]bool{}
		for _, e := range events {
			evSet[e] = true
		}
		out := make([]WindowVerdict, valid)
		for i := range out {
			out[i] = WindowVerdict{Window: i, Valid: true, Event: evSet[i]}
		}
		return out
	}
	total := 96 * 5

	if got := Classify(mk(nil, total), total, total, p); got != Uneventful {
		t.Errorf("no events → %v", got)
	}
	// Low coverage → unclassified.
	if got := Classify(mk(nil, total/2), total/2, total, p); got != Unclassified {
		t.Errorf("50%% coverage → %v", got)
	}
	// All events → continuous.
	all := make([]int, total)
	for i := range all {
		all[i] = i
	}
	if got := Classify(mk(all, total), total, total, p); got != Continuous {
		t.Errorf("all events → %v", got)
	}
	// Same slot on 5 days → diurnal.
	var slots []int
	for d := 0; d < 5; d++ {
		slots = append(slots, d*96+10)
	}
	if got := Classify(mk(slots, total), total, total, p); got != Diurnal {
		t.Errorf("fixed slot × 5 days → %v", got)
	}
	// Same slot on 4 days only → episodic.
	if got := Classify(mk(slots[:4], total), total, total, p); got != Episodic {
		t.Errorf("fixed slot × 4 days → %v", got)
	}
	// A single random event → episodic.
	if got := Classify(mk([]int{42}, total), total, total, p); got != Episodic {
		t.Errorf("single event → %v", got)
	}
}

func TestClassifyParamsClamp(t *testing.T) {
	if p := DefaultClassifyParams(2); p.DiurnalDays != 2 {
		t.Errorf("DiurnalDays = %d, want clamped 2", p.DiurnalDays)
	}
	if p := DefaultClassifyParams(0); p.DiurnalDays != 1 {
		t.Errorf("DiurnalDays = %d, want 1", p.DiurnalDays)
	}
}

// TestOpportunityClassifyDiurnal: a group whose preferred route is only
// beaten during fixed peak hours must classify as Diurnal in Table 1's
// opportunity half.
func TestOpportunityClassifyDiurnal(t *testing.T) {
	st := agg.NewStore()
	r := rng.New(7)
	for win := 0; win < testWindows; win++ {
		hour := (win / 4) % 24
		prefRTT := 25.0
		if hour >= 19 && hour < 23 {
			prefRTT = 40 // peak-hour penalty on the preferred route only
		}
		addWindow(st, "10.3.0.0/24", win, 0, 40, prefRTT, 1, r, bgp.PrivatePeer, 1, false)
		addWindow(st, "10.3.0.0/24", win, 1, 35, 25, 1, r, bgp.Transit, 2, false)
	}
	res := Opportunity(st, MetricMinRTT)
	tbl := res.Classify(st.TotalWindows, DefaultClassifyParams(5), []float64{5, 10})
	row := tbl.Overall[Diurnal][0]
	if row.GroupTrafficShare < 0.99 {
		t.Errorf("diurnal opportunity group share = %v, want ~1", row.GroupTrafficShare)
	}
	// Events cover only the 4 peak hours: the event share is well below
	// the group share.
	if row.EventTrafficShare <= 0 || row.EventTrafficShare > 0.4 {
		t.Errorf("diurnal event share = %v, want ~4/24 of traffic", row.EventTrafficShare)
	}
	// At a 10ms threshold the 15ms diurnal advantage still registers;
	// the uneventful row stays empty.
	if tbl.Overall[Uneventful][1].GroupTrafficShare > 0.01 {
		t.Errorf("uneventful share at 10ms = %v", tbl.Overall[Uneventful][1].GroupTrafficShare)
	}
}

// TestRelationshipsIgnoresInvalidWindows: Table 2 accounting only sums
// event traffic, and absolute fractions use valid traffic.
func TestRelationshipsEmptyWhenNoOpportunity(t *testing.T) {
	st := agg.NewStore()
	r := rng.New(9)
	for win := 0; win < 200; win++ {
		addWindow(st, "10.4.0.0/24", win, 0, 40, 20, 1, r, bgp.PrivatePeer, 1, false)
		addWindow(st, "10.4.0.0/24", win, 1, 35, 30, 1, r, bgp.Transit, 2, false)
	}
	res := Opportunity(st, MetricMinRTT)
	tbl := res.Relationships(5)
	if tbl.TotalEventBytes != 0 || len(tbl.Pairs) != 0 {
		t.Errorf("optimal group produced opportunity rows: %+v", tbl.Pairs)
	}
	if tbl.TotalBytes == 0 {
		t.Error("valid traffic should still be counted")
	}
}

func TestOverviewPerPoP(t *testing.T) {
	o := NewOverview()
	o.Add(sample.Sample{PoP: "ams", MinRTT: 20 * time.Millisecond, Bytes: 100, Transactions: 1, Duration: time.Second})
	o.Add(sample.Sample{PoP: "ams", MinRTT: 30 * time.Millisecond, Bytes: 200, Transactions: 1, Duration: time.Second})
	o.Add(sample.Sample{PoP: "sin", MinRTT: 80 * time.Millisecond, Bytes: 300, Transactions: 1, Duration: time.Second})
	o.Seal()
	ams := o.PerPoP["ams"]
	if ams == nil || ams.Sessions != 2 || ams.Bytes != 300 {
		t.Fatalf("ams overview = %+v", ams)
	}
	if med := ams.MinRTT.Quantile(0.5); med < 20 || med > 30 {
		t.Errorf("ams median = %v", med)
	}
	if o.PerPoP["sin"].Sessions != 1 {
		t.Error("sin missing")
	}
}
