package analysis

import (
	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/stats"
)

// RelComparison selects Figure 10's route-pair categories.
type RelComparison int

// Figure 10's three comparisons.
const (
	// PeeringVsTransit compares peer-preferred groups against their
	// most-preferred transit alternate.
	PeeringVsTransit RelComparison = iota
	// TransitVsTransit compares transit-preferred groups against a
	// transit alternate.
	TransitVsTransit
	// PrivateVsPublic compares PNI-preferred groups against a public
	// exchange alternate.
	PrivateVsPublic
)

// String names the comparison as the figure's legend does.
func (c RelComparison) String() string {
	switch c {
	case PeeringVsTransit:
		return "Peering vs Transit"
	case TransitVsTransit:
		return "Transit vs Transit"
	case PrivateVsPublic:
		return "Private vs Public"
	}
	return "Unknown"
}

// RelComparisons lists the figure's series.
var RelComparisons = [...]RelComparison{PeeringVsTransit, TransitVsTransit, PrivateVsPublic}

// matches reports whether a (preferred, alternate) relationship pair
// belongs to the comparison.
func (c RelComparison) matches(pref, alt bgp.RelType) bool {
	switch c {
	case PeeringVsTransit:
		return pref.IsPeer() && alt == bgp.Transit
	case TransitVsTransit:
		return pref == bgp.Transit && alt == bgp.Transit
	case PrivateVsPublic:
		return pref == bgp.PrivatePeer && alt == bgp.PublicPeer
	}
	return false
}

// RelSeries is Figure 10's comparison series: for each relationship
// category, how much worse the preferred route's median is than the
// alternate's in every window where both compare validly (for MinRTTP50,
// preferred − alternate: positive = the alternate has lower latency).
// Unlike the opportunity analysis, the alternate is the most-preferred
// route of the target relationship, not the best performer (§6.3).
//
// It extends as a Series does, and keeps per group and category which
// alternate it chose, how many of the group's windows it has compared
// and their points.
type RelSeries struct {
	Metric Metric
	// CDFs is the figure: per category with any point, the
	// traffic-weighted distribution of the differences.
	CDFs map[RelComparison]*stats.WeightedCDF
	// Compared is how many (group, category, window) comparisons the call
	// that produced the series made.
	Compared int

	kept map[*agg.GroupSeries][len(RelComparisons)]relPoints
}

// relPoints is one group's points in one category.
type relPoints struct {
	mark
	alt    int // the alternate compared against, 0 when the group has none for the category
	points []stats.WeightedPoint
}

// CompareRelationships builds Figure 10: the extension of a series that
// has seen nothing.
func CompareRelationships(store *agg.Store, metric Metric) map[RelComparison]*stats.WeightedCDF {
	return RelSeries{Metric: metric}.Extend(store).CDFs
}

// Extend returns s brought up to store: each (group, category)'s new
// windows are compared. One whose alternate is no longer the one s chose
// — a more-preferred route of the relationship has appeared — starts
// over, as does one whose mark no longer heads the group's index.
func (s RelSeries) Extend(store *agg.Store) RelSeries {
	out := RelSeries{Metric: s.Metric, kept: make(map[*agg.GroupSeries][len(RelComparisons)]relPoints, store.Len())}
	digest := metrics[s.Metric].digest
	var points [len(RelComparisons)][]stats.WeightedPoint
	for _, g := range store.Groups() {
		prefMeta, ok := g.RouteMeta[0]
		if !ok {
			continue
		}
		kept, alts, wins := s.kept[g], alternates(g), g.WindowIndexes()
		for ci, comparison := range RelComparisons {
			altIdx := 0
			for _, alt := range alts {
				if comparison.matches(prefMeta.Rel, g.RouteMeta[alt].Rel) {
					altIdx = alt
					break
				}
			}
			rp := &kept[ci]
			if rp.alt != altIdx || !rp.heads(wins) {
				*rp = relPoints{alt: altIdx}
			}
			if altIdx == 0 {
				continue
			}
			for _, win := range wins[rp.seen:] {
				out.Compared++
				wa := g.Windows[win]
				pref, alt := wa.Route(0), wa.Route(altIdx)
				if pref == nil || alt == nil {
					continue
				}
				pt := s.Metric.worseBy(digest(pref), digest(alt))
				if !pt.Valid {
					continue
				}
				rp.points = append(rp.points, stats.WeightedPoint{
					Value:  pt.Diff,
					Weight: float64(pref.Bytes + alt.Bytes),
				})
			}
			rp.through(wins)
			points[ci] = append(points[ci], rp.points...)
		}
		out.kept[g] = kept
	}
	out.CDFs = make(map[RelComparison]*stats.WeightedCDF, len(points))
	for ci, pts := range points {
		if len(pts) > 0 {
			out.CDFs[RelComparisons[ci]] = stats.NewWeightedCDF(pts)
		}
	}
	return out
}
