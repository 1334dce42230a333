package analysis

import (
	"testing"

	"repro/internal/agg"
	"repro/internal/world"
)

// TestDeaggregationTradeoff reproduces the §3.3 granularity finding:
// splitting prefixes into subnets loses valid-aggregation coverage
// while barely reducing variability, because addresses within a prefix
// share location and conditions.
func TestDeaggregationTradeoff(t *testing.T) {
	w := world.New(world.Config{Seed: 17, Groups: 12, Days: 1, SessionsPerGroupWindow: 260})
	base := agg.NewStore()
	fine := agg.NewStore()
	fineSink := DeaggregateSink(fine)
	for _, s := range w.GenerateAll() {
		if s.HostingProvider {
			continue
		}
		base.Add(s)
		fineSink(s)
	}

	res := CompareDeaggregation(base, fine)
	if res.FineGroups <= res.BaseGroups*2 {
		t.Errorf("deaggregation produced %d groups from %d, want ~4x", res.FineGroups, res.BaseGroups)
	}
	if res.BaseCoverage == 0 {
		t.Fatal("no valid base aggregations — raise the session density")
	}
	loss := res.CoverageLoss()
	if loss < 0.15 {
		t.Errorf("coverage loss = %.3f; deaggregation should invalidate many windows", loss)
	}
	// Variability must not improve much (prefix members are co-located).
	if red := res.VariabilityReduction(); red > 0.5 {
		t.Errorf("variability reduction = %.3f; paper found it minimal", red)
	}
	t.Logf("groups %d→%d coverage %.2f→%.2f (loss %.0f%%) variability %.2f→%.2f ms (reduction %.0f%%)",
		res.BaseGroups, res.FineGroups, res.BaseCoverage, res.FineCoverage, loss*100,
		res.BaseVariability, res.FineVariability, res.VariabilityReduction()*100)
}
