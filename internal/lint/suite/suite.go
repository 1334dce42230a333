// Package suite assembles the edgelint analyzers and runs them over
// loaded packages, applying //edgelint:allow directives. Run is the one
// driver: cmd/edgelint, `make lint` and the in-repo directive tests all
// call it, so suppression semantics cannot diverge between entry
// points (analysistest calls its per-package half, RunPackageFacts).
//
// The driver resolves Analyzer.Requires (running prerequisite passes
// like cfg first and exposing their results through Pass.ResultOf) and
// plumbs object facts between packages: facts exported while analyzing
// a package are visible when its importers are analyzed, which is what
// makes batchlife's ownership summaries interprocedural across
// segstore → collector → agg/analysis/study.
package suite

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"time"

	"repro/internal/lint/analysis"
	"repro/internal/lint/batchlife"
	"repro/internal/lint/closecheck"
	"repro/internal/lint/lintutil"
	"repro/internal/lint/load"
	"repro/internal/lint/nondeterminism"
	"repro/internal/lint/poisonpath"
	"repro/internal/lint/rowfree"
)

// Analyzers is the full edgelint suite. Prerequisite-only passes (cfg)
// are not listed; the driver schedules them through Requires.
var Analyzers = []*analysis.Analyzer{
	batchlife.Analyzer,
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

// pkgOutcome is the raw result of analyzing one package.
type pkgOutcome struct {
	// findings are pre-suppression diagnostics.
	findings []Finding
	// facts were exported by this package's analyzers, in export order.
	facts []analysis.ObjectFact
	// wall is wall time per analyzer (prerequisites included).
	wall map[string]time.Duration
}

// analyzePackage applies the analyzers — prerequisites first — to one
// type-checked package, exchanging facts through store. Packages with
// type errors refuse analysis: unsound types produce unsound findings.
func analyzePackage(pkg *load.Package, analyzers []*analysis.Analyzer, store *FactStore) (*pkgOutcome, error) {
	if len(pkg.Errors) > 0 {
		return nil, fmt.Errorf("%s has type errors (first: %v)", pkg.Path, pkg.Errors[0])
	}
	out := &pkgOutcome{wall: make(map[string]time.Duration)}
	results := make(map[*analysis.Analyzer]any)
	ran := make(map[*analysis.Analyzer]bool)

	var runOne func(a *analysis.Analyzer) error
	runOne = func(a *analysis.Analyzer) error {
		if ran[a] {
			return nil
		}
		ran[a] = true
		resultOf := make(map[*analysis.Analyzer]any, len(a.Requires))
		for _, r := range a.Requires {
			if err := runOne(r); err != nil {
				return err
			}
			resultOf[r] = results[r]
		}
		name := a.Name
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			ResultOf:  resultOf,
			Report: func(d analysis.Diagnostic) {
				out.findings = append(out.findings, Finding{Analyzer: name, Pos: pkg.Fset.Position(d.Pos), Message: d.Message})
			},
		}
		// Fact plumbing is wired for every analyzer that declares fact
		// types; others get nil hooks (calling them is a bug).
		if len(a.FactTypes) > 0 {
			pass.ImportObjectFact = store.importFact
			pass.ExportObjectFact = func(obj types.Object, fact analysis.Fact) {
				if err := store.export(obj, fact); err != nil {
					panic(fmt.Sprintf("edgelint: %s: %v", name, err))
				}
				if obj.Pkg() != nil && obj.Pkg() == pkg.Types {
					out.facts = append(out.facts, analysis.ObjectFact{Object: obj, Fact: fact})
				}
			}
			pass.AllObjectFacts = func() []analysis.ObjectFact {
				return append([]analysis.ObjectFact(nil), out.facts...)
			}
		}
		t0 := time.Now()
		ret, err := a.Run(pass)
		out.wall[name] += time.Since(t0)
		if err != nil {
			return fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
		}
		results[a] = ret
		return nil
	}
	for _, a := range analyzers {
		if err := runOne(a); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunPackageFacts applies the analyzers to one type-checked package
// and returns its raw (pre-suppression) findings and the facts it
// exported, which analysistest matches against want annotations. Facts
// for the package's dependencies are read from store, and the
// package's own are added to it.
func RunPackageFacts(pkg *load.Package, analyzers []*analysis.Analyzer, store *FactStore) ([]Finding, []analysis.ObjectFact, error) {
	out, err := analyzePackage(pkg, analyzers, store)
	if err != nil {
		return nil, nil, err
	}
	return out.findings, out.facts, nil
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
	// Stats has one entry per analyzer that ran (prerequisites
	// included), slowest first.
	Stats []AnalyzerStat
}

// Run applies the analyzers to every package in dependency order —
// one package at a time, facts flowing from each to its importers
// through one in-memory store — filters findings through
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
	store := NewFactStore()
	for _, pkg := range dependencyOrder(pkgs) {
		out, err := analyzePackage(pkg, analyzers, store)
		if err != nil {
			return nil, err
		}
		for name, d := range out.wall {
			stat(name).Time += d
		}
		res.Findings = append(res.Findings, finalizePackage(pkg, out.findings)...)
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

// dependencyOrder returns pkgs with every package after the ones it
// imports (packages outside pkgs carry no facts and are skipped).
func dependencyOrder(pkgs []*load.Package) []*load.Package {
	byPath := make(map[string]*load.Package, len(pkgs))
	for _, pkg := range pkgs {
		byPath[pkg.Path] = pkg
	}
	out := make([]*load.Package, 0, len(pkgs))
	seen := make(map[*load.Package]bool, len(pkgs))
	var visit func(pkg *load.Package)
	visit = func(pkg *load.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, imp := range pkg.Types.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				visit(dep)
			}
		}
		out = append(out, pkg)
	}
	for _, pkg := range pkgs {
		visit(pkg)
	}
	return out
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
