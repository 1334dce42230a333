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
// against each group's baseline (§5). A group none of whose windows
// reaches the sample floor has no baseline and is left out.
func Degradation(store *agg.Store, metric Metric) DegradationResult {
	res := DegradationResult{Series{Metric: metric}}
	row := &metrics[metric]
	for _, g := range store.Groups() {
		wins := g.WindowIndexes()

		// The baseline is over the medians of windows with enough
		// sessions on the route — not enough of the metric's own, which
		// only the comparison below asks for: HDratio is undefined for
		// sessions nothing could test.
		var medians []float64
		for _, win := range wins {
			a := g.Windows[win].Route(0)
			if a == nil || !a.HasMinSamples() {
				continue
			}
			if v := row.digest(a).Quantile(0.5); !math.IsNaN(v) {
				medians = append(medians, v)
			}
		}
		if len(medians) == 0 {
			continue
		}
		gs := GroupSeries{Group: g, Continent: g.Continent, Points: make([]Point, 0, len(wins))}
		gs.Baseline = stats.Quantile(stats.SortCopy(medians), row.baselineQuantile)
		var baseline stats.QuantileSource = stats.Exactly(gs.Baseline)

		for _, win := range wins {
			a := g.Windows[win].Route(0)
			if a == nil {
				continue
			}
			pt := metric.worseBy(row.digest(a), baseline)
			pt.Window, pt.Bytes = win, a.Bytes
			res.add(&gs, pt)
		}
		res.Groups = append(res.Groups, gs)
	}
	return res
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
