// Package poisonpath defines an analyzer for the pipeline's
// first-error poisoning contract (internal/pipeline): when one stage
// fails, the shared context is cancelled with the error as cause and
// every other stage must observe it. That only works if cancellation
// can reach the goroutines — so any function that spawns concurrency
// in a pipeline-consuming package must thread a context.Context.
//
// In packages that import internal/pipeline (_test.go files and `func
// main` exempt — main owns the root context), a function is flagged
// when it
//
//  1. contains a raw `go` statement, or calls pipeline.NewGroup,
//     without declaring a context.Context parameter (goroutines it
//     spawns are unreachable by the caller's cancellation); or
//
//  2. has a context.Context parameter but creates its group from
//     context.Background() or context.TODO(), severing the caller's
//     poisoning path.
//
// Functions that only submit work to an existing *pipeline.Group are
// fine: the group supplies its context to every stage closure.
package poisonpath

import (
	"go/ast"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer flags concurrency spawned outside the poisoning path.
var Analyzer = &analysis.Analyzer{
	Name: "poisonpath",
	Doc:  "require context.Context on functions spawning goroutines in pipeline-consumer packages",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if !lintutil.ImportsPath(f, "internal/pipeline") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pass.Pkg.Name() == "main" && fd.Name.Name == "main" && fd.Recv == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	hasCtx := hasContextParam(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if !hasCtx {
				pass.Reportf(n.Pos(),
					"%s spawns a goroutine but has no context.Context parameter; pipeline poisoning cannot reach it", fd.Name.Name)
			}
		case *ast.CallExpr:
			if !isNewGroup(pass, n) {
				return true
			}
			if !hasCtx {
				pass.Reportf(n.Pos(),
					"%s creates a pipeline group but has no context.Context parameter; the group cannot inherit the caller's cancellation", fd.Name.Name)
				return true
			}
			for _, arg := range n.Args {
				if isBackgroundCtx(pass, arg) {
					pass.Reportf(arg.Pos(),
						"%s has a context.Context parameter but roots its pipeline group in context.%s, severing the caller's poisoning path",
						fd.Name.Name, lintutil.CalleeFunc(pass.TypesInfo, arg.(*ast.CallExpr)).Name())
				}
			}
		}
		return true
	})
}

func hasContextParam(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		if lintutil.NamedTypeIn(pass.TypesInfo.TypeOf(field.Type), "context", "Context") {
			return true
		}
	}
	return false
}

func isNewGroup(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := lintutil.CalleeFunc(pass.TypesInfo, call)
	return fn != nil && fn.Name() == "NewGroup" && fn.Pkg() != nil &&
		lintutil.PathHasSuffix(fn.Pkg().Path(), "internal/pipeline")
}

func isBackgroundCtx(pass *analysis.Pass, arg ast.Expr) bool {
	call, ok := ast.Unparen(arg).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := lintutil.CalleeFunc(pass.TypesInfo, call)
	return lintutil.IsPkgLevelFunc(fn, "context", "Background", "TODO")
}
