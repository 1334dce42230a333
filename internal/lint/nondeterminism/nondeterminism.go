// Package nondeterminism defines an analyzer enforcing the repo's
// byte-identical-output contract (DESIGN.md §7) inside the
// deterministic packages (world, study, agg, analysis, tdigest, sample,
// hdratio, stats, report).
//
// Three things are flagged there:
//
//  1. Wall-clock reads: time.Now, time.Since, time.Until. Simulated
//     time is derived from sample offsets; wall clocks belong to
//     observability packages (obs, lb). A legitimate wall-clock
//     consumer inside a deterministic package (e.g. the study's
//     elapsed-time span) annotates the single site with
//     //edgelint:allow nondeterminism: reason.
//
//  2. Global math/rand state: calls to package-level functions of
//     math/rand or math/rand/v2. Randomness must flow from
//     repro/internal/rng splits so streams are reproducible and
//     independent per subsystem.
//
//  3. Map iteration feeding order-sensitive sinks. Go randomises map
//     iteration order, so a `for range m` may not append to slices
//     that outlive the loop (unless the slice is sorted later in the
//     same function), accumulate into floating-point variables
//     (float addition does not commute bit-for-bit), send on channels,
//     call emitting/accumulating methods (Write*, Fprint*, Encode,
//     Add, Offer, ...) on state declared outside the loop, or assign
//     the range key to a variable that outlives the loop (the argmax
//     over a map: on a tie the winner is whichever key came first).
//     Writes into other maps, integer accumulation, and per-entry
//     mutation of the map's own values are order-independent and pass.
package nondeterminism

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer flags nondeterminism hazards in deterministic packages.
var Analyzer = &analysis.Analyzer{
	Name: "nondeterminism",
	Doc:  "forbid wall clocks, global math/rand, and order-sensitive map iteration in deterministic packages",
	Run:  run,
}

// sinkNames are method/function names that emit or accumulate in call
// order; calling one on loop-external state during map iteration makes
// the output depend on map order.
var sinkNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Encode": true, "Add": true, "Offer": true, "Observe": true,
	"Record": true, "Push": true, "Emit": true, "Inc": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.IsDeterministicPkg(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.RangeStmt:
			if isMapRange(pass, n) {
				checkMapRange(pass, n, fd)
			}
		}
		return true
	})
}

// checkCall flags wall-clock reads and global math/rand draws.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := lintutil.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if lintutil.IsPkgLevelFunc(fn, "time", "Now", "Since", "Until") {
		pass.Reportf(call.Pos(),
			"wall-clock read time.%s in deterministic package %s; derive times from sample offsets, or annotate the wall-clock consumer with //edgelint:allow nondeterminism: reason",
			fn.Name(), pass.Pkg.Name())
		return
	}
	pkg := fn.Pkg().Path()
	if (pkg == "math/rand" || pkg == "math/rand/v2") && fn.Type().(*types.Signature).Recv() == nil {
		pass.Reportf(call.Pos(),
			"global math/rand draw rand.%s in deterministic package %s; draw from a repro/internal/rng stream instead",
			fn.Name(), pass.Pkg.Name())
	}
}

func isMapRange(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRange walks one map-iteration body looking for
// order-sensitive sinks. Nested map ranges are skipped here; the outer
// Inspect visits them on their own.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, fd *ast.FuncDecl) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if isMapRange(pass, n) {
				return false
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send during map iteration; map order is random, so the receiver sees a random order")
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, n, rng, fd)
		case *ast.CallExpr:
			checkMapRangeCall(pass, n, rng)
		}
		return true
	})
}

func checkMapRangeAssign(pass *analysis.Pass, as *ast.AssignStmt, rng *ast.RangeStmt, fd *ast.FuncDecl) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		for _, lhs := range as.Lhs {
			root := lintutil.RootIdent(lhs)
			if root == nil || lintutil.DeclaredWithin(pass.TypesInfo, root, rng) {
				continue
			}
			if t, ok := pass.TypesInfo.Types[lhs]; ok && isFloatKind(t.Type) {
				pass.Reportf(as.Pos(),
					"floating-point accumulation into %s during map iteration; float addition does not commute bit-for-bit — iterate sorted keys", root.Name)
			}
		}
	case token.ASSIGN, token.DEFINE:
		checkKeyEscapes(pass, as, rng)
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass.TypesInfo, call) || i >= len(as.Lhs) {
				continue
			}
			root := lintutil.RootIdent(as.Lhs[i])
			if root == nil || lintutil.DeclaredWithin(pass.TypesInfo, root, rng) {
				continue
			}
			if sortedAfter(pass, fd, root, rng.End()) {
				continue
			}
			pass.Reportf(as.Pos(),
				"append to %s during map iteration without a subsequent sort; the slice order is random — sort it or iterate sorted keys", root.Name)
		}
	}
}

// checkKeyEscapes flags `outer = key`: after the loop, outer names
// whichever qualifying key the runtime yielded last. An element of
// another map is exempt — that write lands wherever its own index says.
func checkKeyEscapes(pass *analysis.Pass, as *ast.AssignStmt, rng *ast.RangeStmt) {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		id, ok := ast.Unparen(rhs).(*ast.Ident)
		if !ok || pass.TypesInfo.ObjectOf(id) != pass.TypesInfo.ObjectOf(key) {
			continue
		}
		root := lintutil.RootIdent(as.Lhs[i])
		if root == nil || root.Name == "_" || lintutil.DeclaredWithin(pass.TypesInfo, root, rng) {
			continue
		}
		if ix, ok := ast.Unparen(as.Lhs[i]).(*ast.IndexExpr); ok {
			if _, isMap := pass.TypesInfo.TypeOf(ix.X).Underlying().(*types.Map); isMap {
				continue
			}
		}
		pass.Reportf(as.Pos(),
			"range key %s assigned to %s during map iteration; on a tie the key the runtime yields last wins — iterate sorted keys", key.Name, root.Name)
	}
}

func checkMapRangeCall(pass *analysis.Pass, call *ast.CallExpr, rng *ast.RangeStmt) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if !sinkNames[sel.Sel.Name] {
		return
	}
	// Conversions and field-typed funcs are not method sinks.
	if lintutil.CalleeFunc(pass.TypesInfo, call) == nil {
		return
	}
	root := lintutil.RootIdent(sel.X)
	if root == nil {
		return
	}
	// Package-qualified calls (fmt.Fprintf) always emit outward; method
	// calls only matter when the receiver outlives the loop.
	if _, isPkg := pass.TypesInfo.ObjectOf(root).(*types.PkgName); !isPkg {
		if lintutil.DeclaredWithin(pass.TypesInfo, root, rng) {
			return
		}
	}
	pass.Reportf(call.Pos(),
		"%s.%s called during map iteration feeds an order-sensitive sink; map order is random — iterate sorted keys", root.Name, sel.Sel.Name)
}

func isFloatKind(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether ident's slice is passed to a sort
// function after pos within fn — the collect-keys-then-sort idiom.
func sortedAfter(pass *analysis.Pass, fn *ast.FuncDecl, ident *ast.Ident, pos token.Pos) bool {
	obj := pass.TypesInfo.ObjectOf(ident)
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || found || len(call.Args) == 0 {
			return !found
		}
		callee := lintutil.CalleeFunc(pass.TypesInfo, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		switch callee.Pkg().Path() {
		case "sort":
			switch callee.Name() {
			case "Ints", "Strings", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
			default:
				return true
			}
		case "slices":
			switch callee.Name() {
			case "Sort", "SortFunc", "SortStableFunc":
			default:
				return true
			}
		default:
			return true
		}
		argRoot := lintutil.RootIdent(call.Args[0])
		if argRoot != nil && pass.TypesInfo.ObjectOf(argRoot) == obj {
			found = true
		}
		return !found
	})
	return found
}
