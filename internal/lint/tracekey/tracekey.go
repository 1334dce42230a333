// Package tracekey defines an analyzer for the trace contract
// (DESIGN.md §11): every deterministic trace event must carry a stage
// key, and a Span must end inside the loop iteration that began it.
//
// The stage key is the join column of the whole observability layer —
// `edgetrace stages` aggregates by it, exemplars link histograms to it,
// and the stall report correlates timing samples against it. An event
// emitted with an empty stage silently falls out of every attribution
// table while still counting toward ring capacity, so the mistake
// survives all byte-identity goldens and only surfaces as a mysteriously
// incomplete report.
//
// Flagged, repo-wide (_test.go files exempt):
//
//   - (*trace.Buf).Begin or (*trace.Buf).Loss called with a
//     constant-empty stage argument;
//   - (*trace.Buf).Emit given an Event composite literal whose Stage
//     field is omitted or constant-empty;
//   - a `defer` that ends a trace.Span — directly or through a deferred
//     func literal — lexically inside a for/range body. Deferred ends
//     pile up to function exit, so every iteration's span closes late
//     and critical-path weights smear across windows. A defer inside a
//     func literal launched per iteration is fine: it runs when that
//     literal returns.
package tracekey

import (
	"go/ast"
	"go/constant"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer flags stage-less trace events and loop-deferred span ends.
var Analyzer = &analysis.Analyzer{
	Name: "tracekey",
	Doc:  "require stage keys on trace events; forbid Span.End deferred inside loops",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkStage(pass, call)
			}
			return true
		})
		ast.Walk(deferWalker{pass: pass}, f)
	}
	return nil, nil
}

// bufMethod resolves call to a method of the given name on trace.Buf,
// or nil.
func bufMethod(pass *analysis.Pass, call *ast.CallExpr, names ...string) *types.Func {
	fn := lintutil.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !lintutil.NamedTypeIn(recv.Type(), "trace", "Buf") {
		return nil
	}
	for _, name := range names {
		if fn.Name() == name {
			return fn
		}
	}
	return nil
}

// checkStage enforces the non-empty stage key on Begin, Loss, and Emit.
func checkStage(pass *analysis.Pass, call *ast.CallExpr) {
	if fn := bufMethod(pass, call, "Begin", "Loss"); fn != nil {
		// Both signatures place stage at argument index 4.
		if len(call.Args) > 4 && isEmptyString(pass.TypesInfo, call.Args[4]) {
			pass.Reportf(call.Pos(),
				"trace %s with an empty stage key; edgetrace attributes by stage — name the pipeline step",
				fn.Name())
		}
		return
	}
	if fn := bufMethod(pass, call, "Emit"); fn != nil && len(call.Args) == 1 {
		lit, ok := ast.Unparen(call.Args[0]).(*ast.CompositeLit)
		if !ok || !lintutil.NamedTypeIn(pass.TypesInfo.TypeOf(lit), "trace", "Event") {
			return
		}
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				return // positional literal: every field is present
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Stage" {
				if isEmptyString(pass.TypesInfo, kv.Value) {
					pass.Reportf(kv.Value.Pos(),
						"trace event with an empty stage key; edgetrace attributes by stage — name the pipeline step")
				}
				return
			}
		}
		pass.Reportf(call.Pos(),
			"trace event without a stage key; edgetrace attributes by stage — set Event.Stage")
	}
}

// isEmptyString reports whether e is a compile-time constant "".
func isEmptyString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return false
	}
	return constant.StringVal(tv.Value) == ""
}

// deferWalker tracks whether the walk is inside a for/range body with
// no intervening func literal; a defer found there must not end a
// span. The visitor is a value, so loop/literal scoping falls out of
// ast.Walk's recursion.
type deferWalker struct {
	pass   *analysis.Pass
	inLoop bool
}

func (w deferWalker) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.ForStmt, *ast.RangeStmt:
		return deferWalker{pass: w.pass, inLoop: true}
	case *ast.FuncLit:
		// A literal's defers run when the literal returns, not at the
		// enclosing function's exit: per-iteration goroutines are fine.
		return deferWalker{pass: w.pass}
	case *ast.DeferStmt:
		if w.inLoop {
			w.checkDefer(n)
		}
	}
	return w
}

func (w deferWalker) checkDefer(d *ast.DeferStmt) {
	ends := isSpanEnd(w.pass.TypesInfo, d.Call)
	if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok && !ends {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if ends {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && isSpanEnd(w.pass.TypesInfo, call) {
				ends = true
			}
			return true
		})
	}
	if ends {
		w.pass.Reportf(d.Pos(),
			"Span.End deferred inside a loop runs at function exit, closing every iteration's span late; end the span in the loop body")
	}
}

// isSpanEnd reports whether call invokes (trace.Span).End.
func isSpanEnd(info *types.Info, call *ast.CallExpr) bool {
	fn := lintutil.CalleeFunc(info, call)
	if fn == nil || fn.Name() != "End" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && lintutil.NamedTypeIn(recv.Type(), "trace", "Span")
}
