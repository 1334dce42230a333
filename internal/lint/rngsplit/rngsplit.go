// Package rngsplit defines an analyzer enforcing the repo's RNG
// lineage contract: every random stream derives from
// repro/internal/rng (explicit seeds, splittable children), and no
// goroutine shares a generator with another.
//
// Two things are flagged, repo-wide (internal/rng itself and _test.go
// files are exempt):
//
//  1. Imports of math/rand or math/rand/v2 outside internal/rng.
//     Direct use of the stock generators bypasses the seed/split
//     discipline that makes simulations reproducible.
//
//  2. Generator values (*rng.RNG, *rand.Rand) captured by goroutine
//     closures — a closure launched via `go`, Group.Go, or
//     Group.GoPool that reads a generator declared outside itself.
//     Sharing a generator across goroutines is both a data race and a
//     scheduling-order dependency; each goroutine must derive its own
//     child stream (rng.Child / rng.ChildAt) before the spawn.
package rngsplit

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer flags RNG lineage violations.
var Analyzer = &analysis.Analyzer{
	Name: "rngsplit",
	Doc:  "require RNG lineage from internal/rng splits; forbid generators shared across goroutine closures",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if lintutil.PathHasSuffix(pass.Pkg.Path(), "internal/rng") {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			switch p := importPath(imp); p {
			case "math/rand", "math/rand/v2":
				pass.Reportf(imp.Pos(),
					"import of %s outside internal/rng; RNG lineage must come from repro/internal/rng splits", p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					checkClosure(pass, lit, "go statement")
				}
			case *ast.CallExpr:
				if name, ok := spawnMethod(n); ok {
					for _, arg := range n.Args {
						if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
							checkClosure(pass, lit, name)
						}
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

func importPath(imp *ast.ImportSpec) string {
	return imp.Path.Value[1 : len(imp.Path.Value)-1]
}

// spawnMethod recognises calls that launch their closure argument on a
// new goroutine (the pipeline group spawn points).
func spawnMethod(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Go", "GoPool":
		return sel.Sel.Name, true
	}
	return "", false
}

// checkClosure flags free variables of lit that carry generator state.
func checkClosure(pass *analysis.Pass, lit *ast.FuncLit, how string) {
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
		if !ok || seen[obj] || obj.IsField() {
			return true
		}
		// Free variable: declared outside the closure's own range.
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true
		}
		if !isGenerator(obj.Type()) {
			return true
		}
		seen[obj] = true
		pass.Reportf(id.Pos(),
			"%s of type %s captured by goroutine closure (%s); derive a per-goroutine child stream with rng.Child/ChildAt before spawning",
			obj.Name(), types.TypeString(obj.Type(), nil), how)
		return true
	})
}

func isGenerator(t types.Type) bool {
	return lintutil.NamedTypeIn(t, "internal/rng", "RNG") ||
		lintutil.NamedTypeIn(t, "math/rand", "Rand") ||
		lintutil.NamedTypeIn(t, "math/rand/v2", "Rand")
}
