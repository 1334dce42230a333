// Package flow is a known-bad fixture for the closecheck and poisonpath
// analyzers.
package flow

import (
	"bufio"

	"badmod/internal/pipeline"
)

// Drop discards a flush error.
func Drop(bw *bufio.Writer) {
	bw.Flush()
}

// Orphan creates a pipeline group with no context parameter.
func Orphan() error {
	g := pipeline.NewGroup(nil)
	return g.Wait()
}
