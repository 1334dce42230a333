package batchlife_test

import (
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysistest"
	"repro/internal/lint/batchlife"
	"repro/internal/lint/load"
	"repro/internal/lint/suite"
)

// The consumer fixture covers every diagnostic: leaks on error paths,
// use after release, double release, escaping views, overwrites,
// double defers, and the interprocedural cases riding on imported
// facts (Read returns owned, Drain consumes, ScanColumns's emit owns
// its argument).
func TestBatchUserFixture(t *testing.T) {
	analysistest.Run(t, batchlife.Analyzer, "batchuser")
}

// The miniature segstore fixture checks the exported summaries
// themselves via want-fact annotations.
func TestMiniSegstoreFacts(t *testing.T) {
	analysistest.Run(t, batchlife.Analyzer, "segstore")
}

// TestAllowDirective proves the only exemption mechanism end to end:
// in testdata/allowmod one violation carries a reasoned
// //edgelint:allow batchlife directive and one does not — the suite
// must keep exactly the bare one and not flag the directive as unused.
func TestAllowDirective(t *testing.T) {
	ld, err := load.NewLoader("testdata/allowmod")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	res, err := suite.Run(pkgs, []*analysis.Analyzer{batchlife.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	findings := res.Findings
	if len(findings) != 1 {
		var all []string
		for _, f := range findings {
			all = append(all, f.String())
		}
		t.Fatalf("got %d findings, want exactly the bare leak:\n%s", len(findings), strings.Join(all, "\n"))
	}
	f := findings[0]
	if !strings.Contains(f.Message, "without being released") {
		t.Errorf("surviving finding is not the leak: %s", f)
	}
	if !strings.HasSuffix(f.Pos.Filename, "use.go") {
		t.Errorf("finding in unexpected file: %s", f)
	}
}
