// Package analysis is a minimal, dependency-free mirror of the
// golang.org/x/tools/go/analysis API: an Analyzer is a named check, a
// Pass hands it one type-checked package, and diagnostics flow back
// through Pass.Report.
//
// The repo deliberately carries no module dependencies (the build must
// work hermetically offline, see DESIGN.md §8), so instead of pinning
// x/tools this package reproduces the small surface the edgelint suite
// needs. The shapes match x/tools field for field; migrating to the
// real package when a vendored copy becomes available is a find/replace
// of import paths.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //edgelint:allow directives. It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's contract: the first line is a summary, the
	// rest describes exactly what is flagged and what is exempt.
	Doc string

	// Requires lists analyzers whose results this one consumes: the
	// driver runs them first (on the same package) and exposes their
	// return values through Pass.ResultOf.
	Requires []*Analyzer

	// FactTypes lists the fact types this analyzer exports or imports.
	// The driver analyzes packages in dependency order so facts flow
	// from a package to its importers, and wires the Pass's fact hooks
	// only for analyzers that declare some.
	FactTypes []Fact

	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass presents one type-checked package to an analyzer.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer

	// Fset maps positions for every file in the pass (and its imports).
	Fset *token.FileSet

	// Files are the package's parsed source files.
	Files []*ast.File

	// Pkg is the type-checked package.
	Pkg *types.Package

	// TypesInfo holds type and object resolution for Files.
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver fills this in.
	Report func(Diagnostic)

	// ResultOf maps each analyzer in Analyzer.Requires to its Run return
	// value for this package.
	ResultOf map[*Analyzer]any

	// ExportObjectFact associates fact with obj, making it visible to
	// this analyzer when packages importing this one are analyzed. obj
	// must belong to the package under analysis. The driver fills this
	// in; it is nil for analyzers without FactTypes.
	ExportObjectFact func(obj types.Object, fact Fact)

	// ImportObjectFact copies into fact the fact of fact's concrete type
	// previously exported for obj (by this package or one of its
	// dependencies) and reports whether one existed.
	ImportObjectFact func(obj types.Object, fact Fact) bool

	// AllObjectFacts returns the facts exported while analyzing the
	// current package, in no particular order.
	AllObjectFacts func() []ObjectFact
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
