// Package rowfree defines an analyzer for the segment read path's
// columnar contract (DESIGN.md §12): inside internal/study, decoded
// column batches are the hot-path currency, and materializing
// per-row sample.Sample values out of the segment store is a
// regression waiting to happen — a convenience loop quietly puts the
// row conversion back on every scanned sample.
//
// In packages named study (_test.go files exempt — the row oracle
// comparisons live there), a call is flagged when it converts segment
// data back to rows:
//
//   - ColumnBatch.AppendRows — batch-to-row materialization;
//   - Reader.Scan — the row-emitting segment read (ScanColumns is the
//     columnar equivalent).
//
// Intentional uses — the row oracle, per-sample fault decisions —
// carry an //edgelint:allow rowfree: reason directive, so every row
// materialization on the hot path is a recorded decision.
package rowfree

import (
	"go/ast"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer flags row materialization on the segment hot path.
var Analyzer = &analysis.Analyzer{
	Name: "rowfree",
	Doc:  "keep internal/study's segment path on the columnar currency (no per-row sample.Sample materialization)",
	Run:  run,
}

// rowCalls maps the flagged segstore functions to what the finding
// should call them.
var rowCalls = map[string]string{
	"AppendRows": "materializes rows from a column batch",
	"Scan":       "row-emitting segment read",
}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.PathHasSuffix(pass.Pkg.Path(), "study") {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lintutil.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || !lintutil.PathHasSuffix(fn.Pkg().Path(), "segstore") {
				return true
			}
			what, ok := rowCalls[fn.Name()]
			if !ok {
				return true
			}
			pass.Reportf(call.Pos(),
				"%s %s on the segment hot path; stay on the columnar currency (ScanColumns, AddBatch) or record the reason with //edgelint:allow rowfree",
				fn.Name(), what)
			return true
		})
	}
	return nil, nil
}
