package batchlife

import (
	"fmt"
	"strings"
)

// ParamMode classifies what a function does with a *ColumnBatch
// parameter — the per-function summary that makes batchlife
// interprocedural across segstore → collector → agg/analysis/study.
type ParamMode int

const (
	// ParamNone: not a batch parameter.
	ParamNone ParamMode = iota
	// ParamBorrows: the function uses the batch but never releases it;
	// the caller keeps ownership (collector.OfferColumns,
	// agg.Store.AddBatch, Overview.AddColumns, study ingest.columns).
	ParamBorrows
	// ParamConsumes: the function takes ownership — every path through
	// it releases the batch or hands it on (a ScanColumns emit callback).
	// The caller must not touch the batch after the call.
	ParamConsumes
)

func (m ParamMode) String() string {
	switch m {
	case ParamBorrows:
		return "borrows"
	case ParamConsumes:
		return "consumes"
	default:
		return "none"
	}
}

// CallbackFact records that a function hands an owned batch to one of
// its func-typed parameters: parameter Param is called with an owned
// *ColumnBatch as its Arg-th argument. A function literal passed at
// that position therefore owns its Arg-th parameter and must release
// it on every path — this is how Reader.ScanColumns's emit contract
// reaches call sites in other packages.
type CallbackFact struct {
	Param int
	Arg   int
}

// FuncFact is the exported per-function ownership summary.
type FuncFact struct {
	// Params holds one mode per parameter (receiver excluded).
	Params []ParamMode
	// Callbacks lists func-typed parameters that receive batch
	// ownership when called.
	Callbacks []CallbackFact
	// ReturnsOwned reports that the function returns a batch the caller
	// owns (and must release).
	ReturnsOwned bool
}

// AFact marks FuncFact as an analysis fact.
func (*FuncFact) AFact() {}

// String renders the fact compactly; analysistest want-fact annotations
// match against this form.
func (f *FuncFact) String() string {
	var parts []string
	for i, m := range f.Params {
		if m != ParamNone {
			parts = append(parts, fmt.Sprintf("param%d=%s", i, m))
		}
	}
	for _, cb := range f.Callbacks {
		parts = append(parts, fmt.Sprintf("callback%d.arg%d=owned", cb.Param, cb.Arg))
	}
	if f.ReturnsOwned {
		parts = append(parts, "returns=owned")
	}
	if len(parts) == 0 {
		return "batchlife()"
	}
	return "batchlife(" + strings.Join(parts, " ") + ")"
}

// equal reports whether two facts carry the same summary (fixpoint
// termination test).
func (f *FuncFact) equal(g *FuncFact) bool {
	if f == nil || g == nil {
		return f == g
	}
	if f.ReturnsOwned != g.ReturnsOwned || len(f.Params) != len(g.Params) || len(f.Callbacks) != len(g.Callbacks) {
		return false
	}
	for i := range f.Params {
		if f.Params[i] != g.Params[i] {
			return false
		}
	}
	for i := range f.Callbacks {
		if f.Callbacks[i] != g.Callbacks[i] {
			return false
		}
	}
	return true
}

// trivial reports a fact carrying no information (not worth exporting).
func (f *FuncFact) trivial() bool {
	if f.ReturnsOwned || len(f.Callbacks) > 0 {
		return false
	}
	for _, m := range f.Params {
		if m != ParamNone {
			return false
		}
	}
	return true
}
