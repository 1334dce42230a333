package analysis

import "go/types"

// Fact is a summary an analyzer attaches to a types.Object
// (shape-compatible with x/tools go/analysis). Facts exported while
// analyzing a package are visible — via ImportObjectFact — to later
// passes of the same analyzer over packages that import it; this is how
// a check becomes interprocedural without whole-program analysis.
//
// Fact types must be pointers to structs (ImportObjectFact copies the
// stored struct into the caller's) and must be listed in the Analyzer's
// FactTypes. They live in memory for one run and are never serialized.
type Fact interface {
	// AFact marks the type as a Fact; it does nothing.
	AFact()
}

// ObjectFact is one (object, fact) pair, as returned by AllObjectFacts.
type ObjectFact struct {
	Object types.Object
	Fact   Fact
}
