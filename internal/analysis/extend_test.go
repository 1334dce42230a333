package analysis

import (
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/rng"
)

// extendOp is one (group, window) of the extension tests' stream with
// the route cells it fills: the unit a stream may be cut between, since
// a window that has been compared takes no more samples.
type extendOp struct {
	prefix string
	win    int
	cells  []extendCell
}

type extendCell struct {
	alt              int
	rel              bgp.RelType
	n                int
	rttMs            float64
	achieved, tested int
}

func (op extendOp) apply(st *agg.Store) {
	for _, c := range op.cells {
		cellRel(st, op.prefix, op.win, c.alt, c.rel, c.n, c.rttMs, c.achieved, c.tested)
	}
}

const extendDays = 4

// extendStream is four days of six groups at 40 sessions a cell, window
// by window, each group there for something an extension has to get
// right:
//
//	10.1.0.0/24  its MinRTT medians fall by the day, so its baseline
//	             moves; its HDratio medians sit on the atom at 1 and that
//	             baseline keeps its bits. Every seventh window the faster
//	             alternate quarters HDratio (the guard).
//	10.1.1.0/24  one route, constant: a MinRTT baseline that keeps its
//	             bits, and never a §6.2 group.
//	10.1.2.0/24  ten sessions a window on day 1, forty after: it acquires
//	             its baseline on day 2.
//	10.1.3.0/24  one route on day 1, a transit alternate (route 2) from
//	             day 2, a more-preferred transit alternate (route 1) from
//	             day 3, which displaces route 2 in Figure 10.
//	10.0.0.0/24  first seen on day 3, and sorts before the others;
//	             transit against transit.
//	10.1.5.0/24  no traffic every third window, only an alternate's in
//	             some, an alternate below the floor in the rest.
var extendStream = sync.OnceValue(func() []extendOp {
	pp, tr, pub := bgp.PrivatePeer, bgp.Transit, bgp.PublicPeer
	var ops []extendOp
	for win := 0; win < extendDays*96; win++ {
		day, wob := win/96, float64(win%5)
		add := func(prefix string, cells ...extendCell) {
			ops = append(ops, extendOp{prefix, win, cells})
		}

		guarded := 4
		if win%7 == 0 {
			guarded = 1
		}
		add("10.1.0.0/24", extendCell{0, pp, 40, 40 - 2*float64(day) + wob, 4, 4}, extendCell{1, tr, 35, 30, guarded, 4})

		add("10.1.1.0/24", extendCell{0, pp, 40, 25, 3, 4})

		n := 40
		if day == 0 {
			n = 10
		}
		add("10.1.2.0/24", extendCell{0, pp, n, 50 + wob, 4, 4}, extendCell{2, pub, 40, 48, 4, 4})

		late := []extendCell{{0, pp, 40, 35 + wob, 4, 4}}
		if day >= 1 {
			late = append(late, extendCell{2, tr, 40, 33, 4, 4})
		}
		if day >= 2 {
			late = append(late, extendCell{1, tr, 40, 37, 3, 4})
		}
		add("10.1.3.0/24", late...)

		if day >= 2 {
			add("10.0.0.0/24", extendCell{0, tr, 45, 60 - wob, 2, 4}, extendCell{1, tr, 45, 52, 3, 4})
		}

		switch {
		case win%3 == 0:
		case win%10 == 1:
			add("10.1.5.0/24", extendCell{1, tr, 40, 20, 4, 4})
		default:
			add("10.1.5.0/24", extendCell{0, pp, 40, 22 + wob, 4, 4}, extendCell{1, tr, 12, 20, 4, 4})
		}
	}
	return ops
})

// seriesEqual holds got to want: group order, baselines, every point bit
// for bit, both byte counters.
func seriesEqual(t testing.TB, what string, got, want Series) {
	t.Helper()
	if got.Metric != want.Metric || got.CoveredBytes != want.CoveredBytes || got.TotalBytes != want.TotalBytes {
		t.Fatalf("%s: %v covered/total %d/%d, from nothing %v %d/%d", what,
			got.Metric, got.CoveredBytes, got.TotalBytes, want.Metric, want.CoveredBytes, want.TotalBytes)
	}
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: %d groups, from nothing %d", what, len(got.Groups), len(want.Groups))
	}
	for i, w := range want.Groups {
		g := got.Groups[i]
		if g.Group != w.Group || g.Continent != w.Continent {
			t.Fatalf("%s: group %d is %v, from nothing %v", what, i, g.Group.Key, w.Group.Key)
		}
		if math.Float64bits(g.Baseline) != math.Float64bits(w.Baseline) {
			t.Fatalf("%s: %v: baseline %v, from nothing %v", what, w.Group.Key, g.Baseline, w.Baseline)
		}
		if len(g.Points) != len(w.Points) {
			t.Fatalf("%s: %v: %d points, from nothing %d", what, w.Group.Key, len(g.Points), len(w.Points))
		}
		for j, wp := range w.Points {
			p := g.Points[j]
			if p.Window != wp.Window || p.Valid != wp.Valid || p.HDGuardOK != wp.HDGuardOK || p.AltIndex != wp.AltIndex || p.Bytes != wp.Bytes ||
				math.Float64bits(p.Diff) != math.Float64bits(wp.Diff) || math.Float64bits(p.Lo) != math.Float64bits(wp.Lo) || math.Float64bits(p.Hi) != math.Float64bits(wp.Hi) {
				t.Fatalf("%s: %v point %d:\n          got %+v\nfrom nothing %+v", what, w.Group.Key, j, p, wp)
			}
		}
	}
	points := 0
	for _, g := range want.Groups {
		points += len(g.Points)
	}
	if want.Compared != points {
		t.Fatalf("%s: from nothing compared %d points and lists %d", what, want.Compared, points)
	}
}

// relEqual holds an extended Figure 10 series to the one from nothing:
// the same categories, the same points behind each group's share of
// them in the same order, and so the same curves.
func relEqual(t testing.TB, got, want RelSeries) {
	t.Helper()
	if len(got.CDFs) != len(want.CDFs) || len(got.kept) != len(want.kept) {
		t.Fatalf("Figure 10: %d categories over %d groups, from nothing %d over %d", len(got.CDFs), len(got.kept), len(want.CDFs), len(want.kept))
	}
	for g, w := range want.kept {
		k, ok := got.kept[g]
		if !ok {
			t.Fatalf("Figure 10: %v missing", g.Key)
		}
		for ci := range w {
			if k[ci].alt != w[ci].alt || len(k[ci].points) != len(w[ci].points) {
				t.Fatalf("Figure 10: %v, %v: alternate %d with %d points, from nothing %d with %d",
					g.Key, RelComparisons[ci], k[ci].alt, len(k[ci].points), w[ci].alt, len(w[ci].points))
			}
			for j, wp := range w[ci].points {
				if p := k[ci].points[j]; math.Float64bits(p.Value) != math.Float64bits(wp.Value) || p.Weight != wp.Weight {
					t.Fatalf("Figure 10: %v, %v, point %d: %+v, from nothing %+v", g.Key, RelComparisons[ci], j, p, wp)
				}
			}
		}
	}
	for c, w := range want.CDFs {
		cdf := got.CDFs[c]
		if cdf == nil || cdf.Total() != w.Total() {
			t.Fatalf("Figure 10: %v: curve missing or of another weight", c)
		}
		for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			if math.Float64bits(cdf.Quantile(q)) != math.Float64bits(w.Quantile(q)) {
				t.Fatalf("Figure 10: %v: p%v %v, from nothing %v", c, 100*q, cdf.Quantile(q), w.Quantile(q))
			}
		}
	}
}

// extendEvents is what a run of extensions met.
type extendEvents struct {
	moved      bool // a baseline's bits changed between two extensions
	keptBits   bool // a baseline kept its bits while its group gained points
	acquired   bool // a group the series had seen without a baseline got one
	lateRoute  bool // a group the series had seen entered §6.2: its second route
	sortsFirst bool // a new group sorted before every group there was
	displaced  bool // a Figure 10 alternate gave way to a more-preferred one
}

// extended is the five series a study extends.
type extended struct {
	degM, degH DegradationResult
	oppM, oppH OpportunityResult
	rel        RelSeries
}

func (e extended) extend(st *agg.Store) extended {
	return extended{e.degM.Extend(st), e.degH.Extend(st), e.oppM.Extend(st), e.oppH.Extend(st), e.rel.Extend(st)}
}

func nothingExtended() extended {
	return extended{
		degH: DegradationResult{Series{Metric: MetricHDratio}},
		oppH: OpportunityResult{Series{Metric: MetricHDratio}},
	}
}

// equalsFromNothing holds all five to the from-nothing analyses of st.
func (e extended) equalsFromNothing(t testing.TB, st *agg.Store) {
	t.Helper()
	seriesEqual(t, "§5 MinRTT", e.degM.Series, Degradation(st, MetricMinRTT).Series)
	seriesEqual(t, "§5 HDratio", e.degH.Series, Degradation(st, MetricHDratio).Series)
	seriesEqual(t, "§6.2 MinRTT", e.oppM.Series, Opportunity(st, MetricMinRTT).Series)
	seriesEqual(t, "§6.2 HDratio", e.oppH.Series, Opportunity(st, MetricHDratio).Series)
	relEqual(t, e.rel, RelSeries{Metric: MetricMinRTT}.Extend(st))
}

// compared totals what the five extensions computed.
func (e extended) compared() int {
	return e.degM.Compared + e.degH.Compared + e.oppM.Compared + e.oppH.Compared + e.rel.Compared
}

// note records what happened between prev and cur.
func (ev *extendEvents) note(prev, cur extended) {
	for _, pair := range [][2]Series{{prev.degM.Series, cur.degM.Series}, {prev.degH.Series, cur.degH.Series}} {
		for g, c := range pair[1].kept {
			p, seen := pair[0].kept[g]
			switch {
			case !seen || len(c.medians) == 0:
			case len(p.medians) == 0:
				ev.acquired = ev.acquired || p.seen > 0
			case math.Float64bits(p.Baseline) != math.Float64bits(c.Baseline):
				ev.moved = true
			case len(c.Points) > len(p.Points):
				ev.keptBits = true
			}
		}
	}
	for g, c := range cur.oppM.kept {
		if p, seen := prev.oppM.kept[g]; seen && p.Points == nil && c.Points != nil {
			ev.lateRoute = true
		}
	}
	for g, c := range cur.rel.kept {
		if p, seen := prev.rel.kept[g]; seen {
			for ci := range c {
				ev.displaced = ev.displaced || p[ci].alt != 0 && c[ci].alt != p[ci].alt
			}
		}
	}
}

// extensionsEqualFromNothing feeds ops to a store in advances ending at
// cuts (ascending) and at the end, extends the five series after each,
// and holds them to the from-nothing analyses of the store as it then
// stands.
func extensionsEqualFromNothing(t testing.TB, ops []extendOp, cuts []int) (*agg.Store, extended, extendEvents) {
	t.Helper()
	st, cur, lo := agg.NewStore(), nothingExtended(), 0
	var ev extendEvents
	for _, hi := range append(cuts, len(ops)) {
		if hi <= lo {
			continue
		}
		first := ""
		if gs := st.Groups(); len(gs) > 0 {
			first = gs[0].Key.String()
		}
		for _, op := range ops[lo:hi] {
			op.apply(st)
		}
		lo = hi
		prev := cur
		cur = prev.extend(st)
		cur.equalsFromNothing(t, st)
		ev.note(prev, cur)
		ev.sortsFirst = ev.sortsFirst || first != "" && st.Groups()[0].Key.String() < first
	}
	return st, cur, ev
}

// One stream, cut into advances at the day boundaries and at random
// points between them: after every advance the extended §5 and §6.2
// series and Figure 10 are the from-nothing ones, point for point and
// bit for bit — through every reason an extension has to look back.
func TestExtendEqualsFromNothing(t *testing.T) {
	ops := extendStream()
	r := rng.New(7)
	cuts := make([]int, 0, 16)
	for i := 0; i < 9; i++ {
		cuts = append(cuts, r.IntN(len(ops)))
	}
	for i, op := range ops {
		if i > 0 && op.win%96 == 0 && ops[i-1].win != op.win {
			cuts = append(cuts, i)
		}
	}
	sort.Ints(cuts)
	st, cur, ev := extensionsEqualFromNothing(t, ops, cuts)
	if want := (extendEvents{true, true, true, true, true, true}); ev != want {
		t.Errorf("the run met %+v; the stream is there to meet them all", ev)
	}
	if len(st.Groups()) < 6 || st.TotalWindows < 4*96 {
		t.Fatalf("%d groups over %d windows", len(st.Groups()), st.TotalWindows)
	}

	// Nothing new: nothing compared, nothing changed.
	again := cur.extend(st)
	again.equalsFromNothing(t, st)
	if again.compared() != 0 {
		t.Errorf("extending over a store that gained nothing compared %d points", again.compared())
	}

	// Out of contract: a window opens before a group's mark. The group
	// starts over — every one of its windows is compared again — and
	// nobody else does.
	gapped := extendOp{"10.1.5.0/24", 3, []extendCell{{0, bgp.PrivatePeer, 40, 31, 4, 4}, {1, bgp.Transit, 40, 20, 4, 4}}}
	gapped.apply(st)
	over := again.extend(st)
	over.equalsFromNothing(t, st)
	for _, s := range []Series{over.degM.Series, over.degH.Series, over.oppM.Series, over.oppH.Series} {
		var points int
		for _, g := range s.Groups {
			if g.Group.Key.Prefix == gapped.prefix {
				points = len(g.Points)
			}
		}
		if points == 0 || s.Compared != points {
			t.Errorf("%v: compared %d points after a window opened before the mark of a group of %d", s.Metric, s.Compared, points)
		}
	}

	// Another store, even one built from the same stream: none of its
	// groups are the ones the series kept, and everything is compared.
	other := agg.NewStore()
	for _, op := range ops {
		op.apply(other)
	}
	gapped.apply(other)
	moved := over.extend(other)
	moved.equalsFromNothing(t, other)
	if moved.compared() == 0 || moved.degM.Compared != Degradation(other, MetricMinRTT).Compared {
		t.Errorf("extended over another store: compared %d points in all, §5 MinRTT %d", moved.compared(), moved.degM.Compared)
	}
}

// The same body, the input choosing the cuts.
func FuzzSeriesExtend(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 9, 4, 200})
	f.Add([]byte{0, 1, 0, 2, 8, 0, 8, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := extendStream()
		var cuts []int
		for i := 0; i+1 < len(data) && len(cuts) < 6; i += 2 {
			cuts = append(cuts, (int(data[i])<<8|int(data[i+1]))%len(ops))
		}
		sort.Ints(cuts)
		extensionsEqualFromNothing(t, ops, cuts)
	})
}
