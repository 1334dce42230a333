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
var RelComparisons = []RelComparison{PeeringVsTransit, TransitVsTransit, PrivateVsPublic}

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

// CompareRelationships builds Figure 10: for each relationship
// category, the traffic-weighted distribution of how much worse the
// preferred route's median is than the alternate's (for MinRTTP50,
// preferred − alternate: positive = the alternate has lower latency).
// Unlike the opportunity analysis, the alternate is the most-preferred
// route of the target relationship, not the best performer (§6.3).
func CompareRelationships(store *agg.Store, metric Metric) map[RelComparison]*stats.WeightedCDF {
	points := make(map[RelComparison][]stats.WeightedPoint)
	digest := metrics[metric].digest
	for _, g := range store.Groups() {
		prefMeta, ok := g.RouteMeta[0]
		if !ok {
			continue
		}
		alts := alternates(g)
		for _, comparison := range RelComparisons {
			altIdx := -1
			for _, alt := range alts {
				if comparison.matches(prefMeta.Rel, g.RouteMeta[alt].Rel) {
					altIdx = alt
					break
				}
			}
			if altIdx < 0 {
				continue
			}
			for _, win := range g.WindowIndexes() {
				wa := g.Windows[win]
				pref, alt := wa.Route(0), wa.Route(altIdx)
				if pref == nil || alt == nil {
					continue
				}
				pt := metric.worseBy(digest(pref), digest(alt))
				if !pt.Valid {
					continue
				}
				points[comparison] = append(points[comparison], stats.WeightedPoint{
					Value:  pt.Diff,
					Weight: float64(pref.Bytes + alt.Bytes),
				})
			}
		}
	}
	out := make(map[RelComparison]*stats.WeightedCDF, len(points))
	for c, pts := range points {
		out[c] = stats.NewWeightedCDF(pts)
	}
	return out
}
