// Package lintutil holds the pieces the edgelint analyzers share: the
// deterministic-package set, //edgelint:allow directive parsing, and
// small AST/type helpers.
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterministicPkgs names the packages whose outputs must be
// byte-identical run to run (DESIGN.md §7): the world model, the study
// pipeline, aggregation, the analyses (every number in the report),
// sketches, samples, the HDratio methodology, stats, and report
// rendering. Matching is by final import-path segment so analysistest
// fixtures (import path "agg") behave like the real packages (import
// path "repro/internal/agg").
var DeterministicPkgs = map[string]bool{
	"world":    true,
	"study":    true,
	"agg":      true,
	"analysis": true,
	"tdigest":  true,
	"sample":   true,
	"hdratio":  true,
	"stats":    true,
	"report":   true,
}

// IsDeterministicPkg reports whether the import path names one of the
// packages under the determinism contract.
func IsDeterministicPkg(path string) bool {
	return DeterministicPkgs[path[strings.LastIndex(path, "/")+1:]]
}

// PathHasSuffix reports whether an import path equals suffix or ends
// with "/"+suffix. Analyzers match contract packages this way so that
// fixture modules can stand in for the real tree.
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// RootIdent returns the leftmost identifier of a selector / index /
// call chain (the x in x.a.b[i].c), or nil.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.CallExpr:
			e = v.Fun
		default:
			return nil
		}
	}
}

// DeclaredWithin reports whether id's object is declared inside the
// source range of node. Used to distinguish loop-local state from
// state that outlives a map iteration.
func DeclaredWithin(info *types.Info, id *ast.Ident, node ast.Node) bool {
	obj := info.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() >= node.Pos() && obj.Pos() <= node.End()
}

// CalleeFunc resolves a call to the *types.Func it invokes (method or
// package function), or nil for builtins, conversions, and func-typed
// values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := info.ObjectOf(id).(*types.Func)
	return fn
}

// IsPkgLevelFunc reports whether fn is the package-level function
// pkgPath.name (pkgPath matched exactly — used for stdlib packages).
func IsPkgLevelFunc(fn *types.Func, pkgPath string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// NamedTypeIn reports whether t (after pointer unwrapping) is the named
// type name declared in a package whose path ends with pkgSuffix.
func NamedTypeIn(t types.Type, pkgSuffix, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	return obj.Name() == name && PathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// ImportsPath reports whether the file imports a path ending with
// suffix.
func ImportsPath(f *ast.File, suffix string) bool {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if PathHasSuffix(p, suffix) {
			return true
		}
	}
	return false
}

// DirectivePrefix introduces an edgelint suppression comment:
//
//	//edgelint:allow analyzer[,analyzer]: reason
//
// A directive suppresses findings from the named analyzers on its own
// line and on the line that follows (so it works both as a trailing
// comment and as a comment above the offending statement). The reason
// is mandatory: a suppression without a recorded justification is
// itself a lint error, as is a directive that suppresses nothing.
const DirectivePrefix = "//edgelint:allow"

// Directive is one parsed //edgelint:allow comment.
type Directive struct {
	// Pos locates the comment.
	Pos token.Position
	// Analyzers are the analyzer names the directive silences.
	Analyzers []string
	// Reason is the justification text after the colon.
	Reason string
	// Malformed, when non-empty, describes a syntax problem; the suite
	// reports it as a finding rather than honouring the directive.
	Malformed string
	// Used is set by the suite when the directive suppresses at least
	// one finding.
	Used bool
}

// Allows reports whether the directive covers the named analyzer.
func (d *Directive) Allows(name string) bool {
	for _, a := range d.Analyzers {
		if a == name {
			return true
		}
	}
	return false
}

// ParseDirectives extracts every edgelint directive in the file.
func ParseDirectives(fset *token.FileSet, f *ast.File) []*Directive {
	var out []*Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, DirectivePrefix)
			if !ok {
				continue
			}
			d := &Directive{Pos: fset.Position(c.Pos())}
			rest = strings.TrimSpace(rest)
			names, reason, ok := strings.Cut(rest, ":")
			if !ok {
				d.Malformed = "missing reason: want //edgelint:allow analyzer[,analyzer]: reason"
			} else {
				d.Reason = strings.TrimSpace(reason)
				if d.Reason == "" {
					d.Malformed = "empty reason: a suppression must record its justification"
				}
				for _, n := range strings.Split(names, ",") {
					n = strings.TrimSpace(n)
					if n != "" {
						d.Analyzers = append(d.Analyzers, n)
					}
				}
				if len(d.Analyzers) == 0 {
					d.Malformed = "no analyzer names before the colon"
				}
			}
			out = append(out, d)
		}
	}
	return out
}
