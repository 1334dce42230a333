// Package analysis is a minimal, dependency-free mirror of a subset of
// the golang.org/x/tools/go/analysis API: an Analyzer is a named check,
// a Pass hands it one type-checked package, and diagnostics flow back
// through Pass.Report. There are no facts and no prerequisite analyzers:
// every check reads one package on its own.
//
// The repo deliberately carries no module dependencies (the build must
// work hermetically offline, see DESIGN.md §8), so instead of pinning
// x/tools this package reproduces the small surface the edgelint suite
// needs. The fields it has match x/tools field for field; migrating to
// the real package when a vendored copy becomes available is a
// find/replace of import paths.
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
