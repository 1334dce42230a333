package suite

import (
	"strings"
	"testing"

	"repro/internal/lint/load"
)

// TestDirectiveHandling runs the full suite over testdata/allowmod and
// checks the three directive outcomes end to end: a well-formed
// directive suppresses its finding, an unused directive and a
// malformed one are findings themselves, and an unannotated violation
// survives.
func TestDirectiveHandling(t *testing.T) {
	ld, err := load.NewLoader("testdata/allowmod")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(pkgs, Analyzers)
	if err != nil {
		t.Fatal(err)
	}
	findings := res.Findings
	var got []string
	for _, f := range findings {
		got = append(got, f.String())
	}
	all := strings.Join(got, "\n")

	wants := []struct{ line, substr string }{
		{"14", "wall-clock read time.Now"}, // Bare, unsuppressed
		{"18", "unused //edgelint:allow directive"},
		{"23", "malformed directive: missing reason"},
	}
	if len(findings) != len(wants) {
		t.Fatalf("got %d findings, want %d:\n%s", len(findings), len(wants), all)
	}
	for i, w := range wants {
		f := findings[i]
		if !strings.Contains(f.Pos.String(), ":"+w.line+":") || !strings.Contains(f.Message, w.substr) {
			t.Errorf("finding %d = %s, want line %s containing %q", i, f, w.line, w.substr)
		}
	}
	// The suppressed site must not appear anywhere.
	if strings.Contains(all, "agg.go:11") {
		t.Errorf("suppressed finding leaked:\n%s", all)
	}
}
