package analysis

import (
	"repro/internal/agg"
	"repro/internal/geo"
	"repro/internal/stats"
)

// Metric selects which aggregation median an analysis runs on.
type Metric int

// Metrics under analysis.
const (
	// MetricMinRTT analyses MinRTTP50 in milliseconds.
	MetricMinRTT Metric = iota
	// MetricHDratio analyses HDratioP50 in ratio units.
	MetricHDratio
)

// metrics holds everything §3.4 lets differ between the two metrics.
var metrics = [...]struct {
	name string
	// maxCIWidth is the §3.4.1 tightness requirement.
	maxCIWidth float64
	// digest picks the metric's sketch out of an aggregation.
	digest func(*agg.Aggregation) stats.QuantileSource
	// baselineQuantile defines a group's baseline (§3.4) over its
	// preferred route's window medians: the best decile.
	baselineQuantile float64
	// higherIsWorse orients every difference.
	higherIsWorse bool
}{
	MetricMinRTT: {
		name:             "MinRTTP50",
		maxCIWidth:       agg.MaxCIWidthMinRTTMs,
		digest:           func(a *agg.Aggregation) stats.QuantileSource { return a.MinRTT },
		baselineQuantile: 0.10,
		higherIsWorse:    true,
	},
	MetricHDratio: {
		name:             "HDratioP50",
		maxCIWidth:       agg.MaxCIWidthHDratio,
		digest:           func(a *agg.Aggregation) stats.QuantileSource { return a.HD },
		baselineQuantile: 0.90,
		higherIsWorse:    false,
	},
}

// String names the metric.
func (m Metric) String() string { return metrics[m].name }

// Point is one (group, window) comparison under §3.4: a window against
// its group's baseline (§5), or the preferred route against the best
// alternate (§6.2).
type Point struct {
	Window int
	// Diff is the difference of medians in the metric's units, oriented
	// so that positive is what the analysis looks for: the window worse
	// than the baseline, the alternate better than the preferred route.
	// Diff, Lo and Hi are zero unless Valid.
	Diff float64
	// Lo and Hi bound Diff's confidence interval (Price–Bonett).
	Lo, Hi float64
	// Valid reflects the §3.4.1 sample floor and tightness; for an
	// opportunity point, that some alternate compared validly.
	Valid bool
	// HDGuardOK is Valid less the §3.4 guard on MinRTT opportunity: it
	// is false when the best alternate's HDratioP50 is significantly
	// worse than the preferred route's (HDratio is prioritised).
	HDGuardOK bool
	// Bytes is the window's traffic: the preferred route's for
	// degradation, every route's for opportunity.
	Bytes int64
	// AltIndex is the best alternate's route index, -1 when there is
	// none (always, for degradation).
	AltIndex int
}

// Event is the one event rule (§3.4): the comparison is valid, the
// guard holds, and the interval's lower bound clears the threshold.
func (pt Point) Event(threshold float64) bool {
	return pt.Valid && pt.HDGuardOK && pt.Lo > threshold
}

// worseBy is the one comparison recipe (§3.4, stats.Compare): how much
// worse x's median is than y's under m, as a point that knows no
// window yet. The orientation is the order of the operands, never a
// negated result, so equal medians differ by +0 whichever way m points.
func (m Metric) worseBy(x, y stats.QuantileSource) Point {
	row := &metrics[m]
	if !row.higherIsWorse {
		x, y = y, x
	}
	c := stats.Compare(x, y, stats.DefaultConfidence, row.maxCIWidth)
	if !c.Valid {
		return Point{AltIndex: -1}
	}
	return Point{Diff: c.Point, Lo: c.Lo, Hi: c.Hi, Valid: true, HDGuardOK: true, AltIndex: -1}
}

// GroupSeries is one user group's points, in window order.
type GroupSeries struct {
	Group     *agg.GroupSeries
	Continent geo.Continent
	// Baseline is the group's baseline median (degradation only).
	Baseline float64
	Points   []Point

	// What an extension goes on from: how far into Group's windows the
	// points reach, the medians the baseline is over (degradation only; a
	// group may have none yet), and the group's share of the series' byte
	// counters.
	mark
	medians        []float64
	covered, total int64
}

// mark is how far into a group's window index a series has compared:
// the first seen windows, the last of which was window last.
type mark struct{ seen, last int }

// heads reports whether the windows m covers are still the head of wins.
// They are unless a window was opened at or before the last one compared,
// which a series may assume does not happen — a closed window takes no
// more samples — and does not keep stale points over when it does.
func (m mark) heads(wins []int) bool {
	return m.seen <= len(wins) && (m.seen == 0 || wins[m.seen-1] == m.last)
}

// through moves m to the end of wins.
func (m *mark) through(wins []int) {
	if m.seen = len(wins); m.seen > 0 {
		m.last = wins[m.seen-1]
	}
}

// Series is what §5 and §6.2 both produce: per group, a point per
// window with traffic.
//
// A series is extensible: a closed window never takes another sample,
// so its point is computed once, and Extend compares only the windows a
// store has gained since the series was computed — from nothing is the
// extension of a series that has seen no group. What is kept is kept
// per *agg.GroupSeries, by pointer: a series extended over another
// store finds none of its groups there and starts every one over, it
// cannot graft one store's points onto another's. An extension shares
// its points with the series it extends and changes none that series
// shows; extend a series once.
type Series struct {
	Metric Metric
	Groups []GroupSeries
	// CoveredBytes / TotalBytes is the traffic share with valid points
	// (paper: 94.8% / 89.5% for degradation, 89.5% / 85.8% for
	// opportunity, MinRTTP50 / HDratioP50).
	CoveredBytes int64
	TotalBytes   int64
	// Compared is how many points the call that produced the series
	// computed: all of them from nothing, the new windows' (and any group
	// that started over) in an extension.
	Compared int

	// kept is every group the series has seen, listed in Groups or not
	// (§5 lists a group once it has a baseline).
	kept map[*agg.GroupSeries]GroupSeries
}

// extend brings the series up to store: every group, in store order, is
// handed to compare as the series last kept it, with the group's window
// index, and compare appends the points of the windows past gs.seen — or
// starts the group over — and says whether the group is listed in Groups.
// A group never seen starts from the zero series, and so does one whose
// mark no longer heads its index. The byte counters are re-totalled over
// the listed groups.
func (s Series) extend(store *agg.Store, compare func(out *Series, gs *GroupSeries, wins []int) (listed bool)) Series {
	out := Series{Metric: s.Metric, kept: make(map[*agg.GroupSeries]GroupSeries, store.Len())}
	for _, g := range store.Groups() {
		gs, wins := s.kept[g], g.WindowIndexes()
		if !gs.heads(wins) {
			gs = GroupSeries{}
		}
		gs.Group, gs.Continent = g, g.Continent
		listed := compare(&out, &gs, wins)
		out.kept[g] = gs
		if listed {
			out.Groups = append(out.Groups, gs)
			out.CoveredBytes += gs.covered
			out.TotalBytes += gs.total
		}
	}
	return out
}

// add appends a point to g and counts its traffic.
func (s *Series) add(g *GroupSeries, pt Point) {
	s.Compared++
	g.total += pt.Bytes
	if pt.Valid {
		g.covered += pt.Bytes
	}
	g.Points = append(g.Points, pt)
}

// CDF returns the traffic-weighted distribution of Diff over valid
// points (Figures 8 and 9), plus the distributions of the interval
// bounds (the figures' shaded band).
func (s Series) CDF() (diff, lo, hi *stats.WeightedCDF) {
	var pd, pl, ph []stats.WeightedPoint
	for _, g := range s.Groups {
		for _, pt := range g.Points {
			if !pt.Valid {
				continue
			}
			w := float64(pt.Bytes)
			pd = append(pd, stats.WeightedPoint{Value: pt.Diff, Weight: w})
			pl = append(pl, stats.WeightedPoint{Value: pt.Lo, Weight: w})
			ph = append(ph, stats.WeightedPoint{Value: pt.Hi, Weight: w})
		}
	}
	return stats.NewWeightedCDF(pd), stats.NewWeightedCDF(pl), stats.NewWeightedCDF(ph)
}
