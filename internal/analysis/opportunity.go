package analysis

import (
	"math"
	"sort"

	"repro/internal/agg"
	"repro/internal/bgp"
)

// OpportunityResult is the §6.2 analysis output: in each window, the
// preferred route against the best alternate.
type OpportunityResult struct{ Series }

// Opportunity compares the preferred route with the best alternate in
// every aggregation (§6.2): the extension of a result that has seen
// nothing.
func Opportunity(store *agg.Store, metric Metric) OpportunityResult {
	return OpportunityResult{Series{Metric: metric}}.Extend(store)
}

// Extend returns r brought up to store (Series: what an extension keeps
// and shares): each group's new windows are compared. A route that first
// carries traffic later leaves earlier windows' points as they are — it
// has no cell in them — except the second route, which is what brings a
// group into the analysis, with every window it has.
func (r OpportunityResult) Extend(store *agg.Store) OpportunityResult {
	metric := r.Metric
	return OpportunityResult{r.extend(store, func(out *Series, gs *GroupSeries, wins []int) bool {
		g := gs.Group
		if len(g.RouteMeta) < 2 {
			return false // nothing kept: gs.seen stays 0
		}
		if gs.Points == nil {
			gs.Points = make([]Point, 0, len(wins))
		}
		alts := alternates(g)
		for _, win := range wins[gs.seen:] {
			wa := g.Windows[win]
			pt := bestAlternate(metric, wa, alts)
			pt.Window = win
			for _, a := range wa.Routes {
				pt.Bytes += a.Bytes
			}
			out.add(gs, pt)
		}
		gs.through(wins)
		return true
	})}
}

// alternates returns the group's alternate route indexes, ascending:
// policy order, most preferred first.
func alternates(g *agg.GroupSeries) []int {
	alts := make([]int, 0, len(g.RouteMeta))
	for alt := range g.RouteMeta {
		if alt != 0 {
			alts = append(alts, alt)
		}
	}
	sort.Ints(alts)
	return alts
}

// bestAlternate compares the window's preferred route with each of its
// alternates and returns the point of the one that beats it by most.
// Alternates are walked in policy order and only a strictly larger
// difference displaces the leader, so a tie goes to the most preferred.
func bestAlternate(metric Metric, wa *agg.WindowAgg, alts []int) Point {
	best := Point{AltIndex: -1}
	pref := wa.Route(0)
	if pref == nil {
		return best
	}
	digest := metrics[metric].digest
	for _, alt := range alts {
		a := wa.Routes[alt]
		if a == nil {
			continue
		}
		if pt := metric.worseBy(digest(pref), digest(a)); pt.Valid && (!best.Valid || pt.Diff > best.Diff) {
			best, best.AltIndex = pt, alt
		}
	}
	// Guard: no opportunity in a lower MinRTT if the alternate's HDratio
	// is significantly worse at all (§3.4: HDratio is prioritised).
	if best.Valid && metric == MetricMinRTT &&
		MetricHDratio.worseBy(wa.Routes[best.AltIndex].HD, pref.HD).Event(0) {
		best.HDGuardOK = false
	}
	return best
}

// FractionImprovableAtLeast returns the traffic share whose preferred
// route can be beaten by at least x (read off Figure 9, e.g. 2.0% for
// 5 ms MinRTT, 0.2% for 0.05 HDratio in the paper).
func (r OpportunityResult) FractionImprovableAtLeast(x float64) float64 {
	return r.validShare(func(pt Point) bool { return pt.Event(x) })
}

// FractionWithinOfOptimal returns the traffic share where the preferred
// route is within x of the best route (§6.2: 83.9% within 3 ms;
// 93.4% within 0.025 HDratio): the best alternate's advantage is at
// most x.
func (r OpportunityResult) FractionWithinOfOptimal(x float64) float64 {
	return r.validShare(func(pt Point) bool { return pt.Diff <= x })
}

// validShare returns the share of valid points' traffic that is on
// points satisfying in.
func (r OpportunityResult) validShare(in func(Point) bool) float64 {
	var hit, total int64
	for _, g := range r.Groups {
		for _, pt := range g.Points {
			if !pt.Valid {
				continue
			}
			total += pt.Bytes
			if in(pt) {
				hit += pt.Bytes
			}
		}
	}
	if total == 0 {
		return math.NaN()
	}
	return float64(hit) / float64(total)
}

// RelPair is a Table 2 row: the preferred route's relationship and the
// best alternate's.
type RelPair struct {
	Pref, Alt bgp.RelType
}

// RelOpportunity is one Table 2 row's accumulators.
type RelOpportunity struct {
	// EventBytes is traffic during opportunity windows on this pair.
	EventBytes int64
	// LongerBytes: the alternate's AS-path was longer than preferred's.
	LongerBytes int64
	// PrependedBytes: the alternate was prepended more.
	PrependedBytes int64
}

// RelationshipTable is Table 2 for one metric.
type RelationshipTable struct {
	Metric Metric
	// Pairs maps relationship pair → accumulators.
	Pairs map[RelPair]*RelOpportunity
	// TotalBytes is all analysed traffic (the "absolute" denominator).
	TotalBytes int64
	// TotalEventBytes sums opportunity traffic (the "relative"
	// denominator).
	TotalEventBytes int64
}

// Relationships builds Table 2 at the given opportunity threshold.
func (r OpportunityResult) Relationships(threshold float64) RelationshipTable {
	tbl := RelationshipTable{
		Metric: r.Metric,
		Pairs:  make(map[RelPair]*RelOpportunity),
	}
	for _, g := range r.Groups {
		prefMeta, okP := g.Group.RouteMeta[0]
		for _, pt := range g.Points {
			if pt.Valid {
				tbl.TotalBytes += pt.Bytes
			}
			if !okP || !pt.Event(threshold) || pt.AltIndex < 0 {
				continue
			}
			altMeta, okA := g.Group.RouteMeta[pt.AltIndex]
			if !okA {
				continue
			}
			pair := RelPair{Pref: prefMeta.Rel, Alt: altMeta.Rel}
			ro := tbl.Pairs[pair]
			if ro == nil {
				ro = &RelOpportunity{}
				tbl.Pairs[pair] = ro
			}
			ro.EventBytes += pt.Bytes
			tbl.TotalEventBytes += pt.Bytes
			if altMeta.ASPathLen > prefMeta.ASPathLen {
				ro.LongerBytes += pt.Bytes
			}
			if altMeta.Prepended && !prefMeta.Prepended {
				ro.PrependedBytes += pt.Bytes
			}
		}
	}
	return tbl
}
