// Package suite assembles the edgelint analyzers and runs them over
// loaded packages, applying //edgelint:allow directives. Run is the one
// driver: cmd/edgelint, `make lint` and the in-repo directive tests all
// call it, so suppression semantics cannot diverge between entry
// points (analysistest calls its per-package half, RunPackage).
//
// Every analyzer reads one package on its own — there are no facts and
// no prerequisite passes — so packages are analyzed in any order and
// the findings sorted afterwards.
package suite

import (
	"fmt"
	"go/token"
	"sort"
	"time"

	"repro/internal/lint/analysis"
	"repro/internal/lint/closecheck"
	"repro/internal/lint/lintutil"
	"repro/internal/lint/load"
	"repro/internal/lint/nondeterminism"
	"repro/internal/lint/poisonpath"
	"repro/internal/lint/rowfree"
)

// Analyzers is the full edgelint suite.
var Analyzers = []*analysis.Analyzer{
	closecheck.Analyzer,
	nondeterminism.Analyzer,
	poisonpath.Analyzer,
	rowfree.Analyzer,
}

// Finding is one reported, post-suppression diagnostic.
type Finding struct {
	// Analyzer is the reporting analyzer's name ("edgelint" for
	// driver-level problems such as malformed or unused directives).
	Analyzer string
	// Pos locates the finding.
	Pos token.Position
	// Message describes it.
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// RunPackage applies the analyzers to one type-checked package and
// returns its raw (pre-suppression) findings, which analysistest
// matches against want annotations. Packages with type errors refuse
// analysis: unsound types produce unsound findings.
func RunPackage(pkg *load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	if len(pkg.Errors) > 0 {
		return nil, fmt.Errorf("%s has type errors (first: %v)", pkg.Path, pkg.Errors[0])
	}
	var findings []Finding
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report: func(d analysis.Diagnostic) {
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pkg.Fset.Position(d.Pos), Message: d.Message})
			},
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	return findings, nil
}

// finalizePackage applies the package's //edgelint:allow directives to
// its raw findings and appends directive diagnostics (malformed, or
// unused — the directive names no finding that fired). Suppression is
// a per-package affair: a directive only ever matches findings in its
// own file.
func finalizePackage(pkg *load.Package, raw []Finding) []Finding {
	var directives []*lintutil.Directive
	for _, f := range pkg.Files {
		directives = append(directives, lintutil.ParseDirectives(pkg.Fset, f)...)
	}
	kept := Suppress(raw, directives)
	for _, d := range directives {
		switch {
		case d.Malformed != "":
			kept = append(kept, Finding{Analyzer: "edgelint", Pos: d.Pos, Message: "malformed directive: " + d.Malformed})
		case !d.Used:
			kept = append(kept, Finding{Analyzer: "edgelint", Pos: d.Pos,
				Message: "unused //edgelint:allow directive: nothing on this or the next line triggers " + fmt.Sprint(d.Analyzers)})
		}
	}
	return kept
}

// AnalyzerStat aggregates one analyzer's cost and yield across a run.
type AnalyzerStat struct {
	Name string
	// Time is wall time summed across packages.
	Time time.Duration
	// Findings counts post-suppression findings.
	Findings int
}

// Result is a run's findings plus accounting.
type Result struct {
	// Findings are post-suppression, sorted by position then message.
	Findings []Finding
	// Packages is how many packages were analyzed.
	Packages int
	// Stats has one entry per analyzer that ran, slowest first.
	Stats []AnalyzerStat
}

// Run applies the analyzers to every package, filters findings through
// //edgelint:allow directives, and reports malformed or unused
// directives as findings of their own.
func Run(pkgs []*load.Package, analyzers []*analysis.Analyzer) (*Result, error) {
	res := &Result{Packages: len(pkgs)}
	stats := make(map[string]*AnalyzerStat)
	stat := func(name string) *AnalyzerStat {
		if stats[name] == nil {
			stats[name] = &AnalyzerStat{Name: name}
		}
		return stats[name]
	}
	for _, pkg := range pkgs {
		var raw []Finding
		for _, a := range analyzers {
			t0 := time.Now()
			found, err := RunPackage(pkg, []*analysis.Analyzer{a})
			stat(a.Name).Time += time.Since(t0)
			if err != nil {
				return nil, err
			}
			raw = append(raw, found...)
		}
		res.Findings = append(res.Findings, finalizePackage(pkg, raw)...)
	}
	for _, f := range res.Findings {
		stat(f.Analyzer).Findings++
	}
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i].Pos, res.Findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return res.Findings[i].Message < res.Findings[j].Message
	})
	for _, st := range stats {
		res.Stats = append(res.Stats, *st)
	}
	sort.Slice(res.Stats, func(i, j int) bool {
		if res.Stats[i].Time != res.Stats[j].Time {
			return res.Stats[i].Time > res.Stats[j].Time
		}
		return res.Stats[i].Name < res.Stats[j].Name
	})
	return res, nil
}

// Suppress drops findings covered by a well-formed directive on the
// same line or the line above, marking the directives used.
func Suppress(findings []Finding, directives []*lintutil.Directive) []Finding {
	var kept []Finding
	for _, f := range findings {
		suppressed := false
		for _, d := range directives {
			if d.Malformed != "" || d.Pos.Filename != f.Pos.Filename {
				continue
			}
			if (d.Pos.Line == f.Pos.Line || d.Pos.Line == f.Pos.Line-1) && d.Allows(f.Analyzer) {
				d.Used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	return kept
}
