package analysis

import (
	"math"
	"sort"

	"repro/internal/agg"
	"repro/internal/geo"
)

// GroupSummary is one user group's dataset-level roll-up, backing the
// edgestat inspection tool.
type GroupSummary struct {
	Key       string
	Continent geo.Continent
	ClientAS  int

	Sessions int
	Bytes    int64
	Windows  int
	Coverage float64 // fraction of dataset windows with traffic

	// Preferred-route medians over the whole dataset.
	MinRTTP50  float64
	HDratioP50 float64

	// Baseline and worst-window degradation (MinRTT, ms).
	Baseline         float64
	WorstDegradation float64

	// Routes counts the measured egress routes.
	Routes int
}

// SummariseGroups rolls every group up, sorted by traffic descending.
func SummariseGroups(store *agg.Store) []GroupSummary {
	deg := Degradation(store, MetricMinRTT)
	baselines := make(map[string]GroupSeries, len(deg.Groups))
	for _, g := range deg.Groups {
		baselines[g.Group.Key.String()] = g
	}

	out := make([]GroupSummary, 0, store.Len())
	for _, g := range store.Groups() {
		gs := GroupSummary{
			Key:       g.Key.String(),
			Continent: g.Continent,
			ClientAS:  g.ClientAS,
			Windows:   len(g.Windows),
			Coverage:  g.CoverageFraction(store.TotalWindows),
			Routes:    len(g.RouteMeta),
		}
		// Merge the preferred route's digests across windows.
		var rtts, hds []float64
		for _, win := range g.WindowIndexes() {
			a := g.Windows[win].Route(0)
			if a == nil {
				continue
			}
			gs.Sessions += a.Sessions
			gs.Bytes += a.Bytes
			if m := a.MinRTTP50(); !math.IsNaN(m) {
				rtts = append(rtts, m)
			}
			if h := a.HDratioP50(); !math.IsNaN(h) {
				hds = append(hds, h)
			}
		}
		gs.MinRTTP50 = median(rtts)
		gs.HDratioP50 = median(hds)

		if gd, ok := baselines[gs.Key]; ok {
			gs.Baseline = gd.Baseline
			worst := 0.0
			for _, pt := range gd.Points {
				if pt.Valid && pt.Diff > worst {
					worst = pt.Diff
				}
			}
			gs.WorstDegradation = worst
		}
		out = append(out, gs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bytes > out[j].Bytes })
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
