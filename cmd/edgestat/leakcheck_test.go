package main

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/segstore"
)

// TestMain runs edgestat's tests under segstore leak-check mode and
// asserts zero outstanding pooled batches afterwards: the roll-up
// releases every batch its scan hands it, on success and on error.
func TestMain(m *testing.M) {
	segstore.SetLeakCheck(true)
	code := m.Run()
	if out, dbl := segstore.LeakStats(); code == 0 && (out != 0 || dbl != 0) {
		fmt.Fprintf(os.Stderr, "segstore leak check: %d outstanding batches, %d double releases after edgestat tests\n", out, dbl)
		code = 1
	}
	os.Exit(code)
}
