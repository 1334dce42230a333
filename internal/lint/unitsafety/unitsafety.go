// Package unitsafety defines an analyzer guarding the unit discipline
// of the measurement pipeline: quantities typed in repro/internal/units
// (Rate in bits/second, ByteSize in bytes) and time.Duration must not
// silently mix with each other or with bare numerics. The HDratio
// goodput corrections (§3.2) are exactly the arithmetic where a
// bytes-vs-bits or Mbps-vs-bps slip survives the compiler.
//
// Flagged, repo-wide (internal/units itself and _test.go files are
// exempt):
//
//  1. Direct conversions between dimensioned types — units.Rate(b)
//     where b is a ByteSize, time.Duration(r) where r is a Rate, and
//     every other cross-dimension cast. Converting a quantity between
//     dimensions requires real math (RateOf, BytesIn, TimeFor), not a
//     cast.
//
//  2. Multiplying two values of the same units type: Rate*Rate is
//     bits²/s², not a Rate, whatever the type system says.
//
//  3. Additive or ordering operations mixing a units quantity with a
//     bare numeric constant (r > 2500000). Thresholds must spell their
//     unit: r > 2.5*units.Mbps. Zero is exempt (sign checks are
//     dimensionless).
package unitsafety

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer flags unit-mixing hazards.
var Analyzer = &analysis.Analyzer{
	Name: "unitsafety",
	Doc:  "forbid cross-dimension casts, squared units, and bare numeric constants mixed with units quantities",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if lintutil.PathHasSuffix(pass.Pkg.Path(), "internal/units") {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkConversion(pass, n)
			case *ast.BinaryExpr:
				checkBinary(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// dimOf returns the dimension of a named quantity type, or "".
func dimOf(t types.Type) string {
	switch {
	case lintutil.NamedTypeIn(t, "internal/units", "Rate"):
		return "bits/s (units.Rate)"
	case lintutil.NamedTypeIn(t, "internal/units", "ByteSize"):
		return "bytes (units.ByteSize)"
	case lintutil.NamedTypeIn(t, "time", "Duration"):
		return "nanoseconds (time.Duration)"
	}
	return ""
}

// checkConversion flags casts between two different dimensions.
func checkConversion(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	dst := dimOf(tv.Type)
	if dst == "" {
		return
	}
	argTV, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || argTV.Value != nil { // constants carry no dimension
		return
	}
	src := dimOf(argTV.Type)
	if src == "" || src == dst {
		return
	}
	pass.Reportf(call.Pos(),
		"direct conversion from %s to %s; a cast does not convert units — go through the arithmetic helpers (units.RateOf, Rate.BytesIn, Rate.TimeFor)", src, dst)
}

// checkBinary flags same-unit multiplication and bare-constant mixing.
func checkBinary(pass *analysis.Pass, be *ast.BinaryExpr) {
	xt, xok := pass.TypesInfo.Types[be.X]
	yt, yok := pass.TypesInfo.Types[be.Y]
	if !xok || !yok {
		return
	}
	xd, yd := dimOf(xt.Type), dimOf(yt.Type)

	// Constants are scalars (2 * r scales; it does not square): only
	// two non-constant operands of the same unit multiply wrongly.
	if be.Op == token.MUL && xt.Value == nil && yt.Value == nil &&
		xd != "" && xd == yd && !isDuration(xt.Type) {
		pass.Reportf(be.Pos(),
			"multiplying two %s quantities; the product is not a quantity of the same unit — convert one side to a dimensionless float64 first", xd)
		return
	}

	switch be.Op {
	case token.ADD, token.SUB, token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return
	}
	// Exactly one side is a units quantity (Duration is excluded:
	// the stdlib's own constants cover it) and the other is a bare
	// nonzero constant with no unit spelled.
	check := func(q types.Type, c types.TypeAndValue, cexpr ast.Expr) {
		d := dimOf(q)
		if d == "" || isDuration(q) || c.Value == nil {
			return
		}
		if isZero(c) || mentionsUnits(pass, cexpr) {
			return
		}
		pass.Reportf(be.Pos(),
			"bare numeric constant mixed with a %s quantity; spell the unit (e.g. 2.5*units.Mbps, 10*units.KB)", d)
	}
	check(xt.Type, yt, be.Y)
	check(yt.Type, xt, be.X)
}

func isDuration(t types.Type) bool { return lintutil.NamedTypeIn(t, "time", "Duration") }

func isZero(tv types.TypeAndValue) bool {
	if tv.Value == nil {
		return false
	}
	return tv.Value.String() == "0"
}

// mentionsUnits reports whether the constant expression references any
// object from the units package (units.Mbps, units.KB, ...), i.e. the
// author spelled a unit.
func mentionsUnits(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil && obj.Pkg() != nil &&
			lintutil.PathHasSuffix(obj.Pkg().Path(), "internal/units") {
			found = true
		}
		return !found
	})
	return found
}
