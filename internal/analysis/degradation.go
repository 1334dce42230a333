package analysis

import (
	"math"

	"repro/internal/agg"
	"repro/internal/stats"
)

// DegradationResult is the §5 analysis output: each window of a group's
// preferred route against the group's baseline.
type DegradationResult struct{ Series }

// Degradation computes per-window degradation of the preferred route
// against each group's baseline (§5): the extension of a result that has
// seen nothing.
func Degradation(store *agg.Store, metric Metric) DegradationResult {
	return DegradationResult{Series{Metric: metric}}.Extend(store)
}

// Extend returns r brought up to store (Series: what an extension keeps
// and shares). Each group's new windows are compared against its
// baseline; a group whose baseline is not, bit for bit, the one r
// compared against — the new windows' medians moved it, or the group had
// none until now — has every window compared again. A group none of
// whose windows reaches the sample floor has no baseline and is left out.
func (r DegradationResult) Extend(store *agg.Store) DegradationResult {
	metric, row := r.Metric, &metrics[r.Metric]
	return DegradationResult{r.extend(store, func(out *Series, gs *GroupSeries, wins []int) bool {
		g, fresh, had := gs.Group, wins[gs.seen:], len(gs.medians)
		gs.through(wins)

		// The baseline is over the medians of windows with enough
		// sessions on the route — not enough of the metric's own, which
		// only the comparison below asks for: HDratio is undefined for
		// sessions nothing could test.
		for _, win := range fresh {
			a := g.Windows[win].Route(0)
			if a == nil || !a.HasMinSamples() {
				continue
			}
			if v := row.digest(a).Quantile(0.5); !math.IsNaN(v) {
				gs.medians = append(gs.medians, v)
			}
		}
		if len(gs.medians) == 0 {
			return false
		}
		if len(gs.medians) > had {
			b := stats.Quantile(stats.SortCopy(gs.medians), row.baselineQuantile)
			if had == 0 || math.Float64bits(b) != math.Float64bits(gs.Baseline) {
				gs.Baseline, fresh = b, wins
				gs.Points, gs.covered, gs.total = make([]Point, 0, len(wins)), 0, 0
			}
		}
		var baseline stats.QuantileSource = stats.Exactly(gs.Baseline)
		for _, win := range fresh {
			a := g.Windows[win].Route(0)
			if a == nil {
				continue
			}
			pt := metric.worseBy(row.digest(a), baseline)
			pt.Window, pt.Bytes = win, a.Bytes
			out.add(gs, pt)
		}
		return true
	})}
}

// RTTSeries returns a group's preferred-route MinRTTP50 per window —
// the time series behind Figure 5's client-population-shift example,
// where a prefix serving two regions sees its group median oscillate as
// the regional activity mix changes over the day.
func RTTSeries(g *agg.GroupSeries) map[int]float64 {
	out := make(map[int]float64, len(g.Windows))
	for win, wa := range g.Windows {
		a := wa.Route(0)
		if a == nil || a.MinRTT.Count() == 0 {
			continue
		}
		out[win] = a.MinRTTP50()
	}
	return out
}
