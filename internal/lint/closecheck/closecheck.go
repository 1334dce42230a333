// Package closecheck defines an analyzer for the bug class PR 1 fixed
// by hand in cmd/edgesim: a Flush, Close, Seal, or Commit whose error
// is silently discarded. A full disk or failed sink surfaces exactly
// once, at flush/close/commit time; dropping that error truncates
// datasets without anyone noticing. For segstore.Writer.Commit the
// stakes are higher still: a dropped Commit error means segments the
// caller believes durable are absent from the manifest, so a resumed
// run silently regenerates (or worse, skips) them.
//
// Flagged, repo-wide (_test.go files exempt): calls to methods named
// Flush, Close, Seal, or Commit whose last result is an error, when
// the call appears as a bare expression statement, a `go` statement,
// or a `defer`. Assigning the error — even to _ — is accepted: an
// explicit discard is a visible, reviewable decision. One idiom is
// exempt: `defer f.Close()` on an *os.File, the conventional
// read-side close (write paths must close explicitly and check, as
// cmd/edgesim does).
package closecheck

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer flags discarded Flush/Close/Seal/Commit errors.
var Analyzer = &analysis.Analyzer{
	Name: "closecheck",
	Doc:  "forbid unchecked errors from Flush/Close/Seal/Commit",
	Run:  run,
}

var checked = map[string]bool{"Flush": true, "Close": true, "Seal": true, "Commit": true}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkCall(pass, call, false)
				}
			case *ast.DeferStmt:
				checkCall(pass, n.Call, true)
			case *ast.GoStmt:
				checkCall(pass, n.Call, false)
			}
			return true
		})
	}
	return nil, nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, deferred bool) {
	fn := lintutil.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || !checked[fn.Name()] {
		return
	}
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil || !lastIsError(sig.Results()) {
		return
	}
	if deferred && isOSFile(recv.Type()) {
		return // conventional read-side close
	}
	pass.Reportf(call.Pos(),
		"unchecked error from (%s).%s; handle it, or assign to _ to make the discard explicit",
		types.TypeString(recv.Type(), types.RelativeTo(pass.Pkg)), fn.Name())
}

func lastIsError(res *types.Tuple) bool {
	if res == nil || res.Len() == 0 {
		return false
	}
	named, ok := res.At(res.Len() - 1).Type().(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func isOSFile(t types.Type) bool {
	return lintutil.NamedTypeIn(t, "os", "File")
}
