//go:build !race

// Under the race detector sync.Pool drops a quarter of what is put back,
// on purpose, so the reuse below is only certain without it.

package segstore

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
)

// A scan's batches outlive its Reader: a new Reader over the same
// dataset decodes into the batches the last one released, so a caller
// that opens a Reader per scan (a study over a dataset, the daemon's
// revalidation) does not make its column buffers again each time.
// Regression: each Reader had a pool of its own, so every Open scanned
// from an empty pool. One processor and no collection keep the pool
// from dropping or hiding a batch, which would read as a new one.
func TestScanBatchesOutliveReader(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	dir := writeDataset(t, 8)
	released := map[*ColumnBatch]bool{}
	for scan, workers := range []int{2, 1, 2, 1} {
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		reused, batches := 0, map[*ColumnBatch]bool{}
		err = r.ScanColumns(context.Background(), workers, nil, func(b *ColumnBatch) error {
			if !batches[b] && released[b] {
				reused++
			}
			batches[b] = true
			b.Release()
			return nil
		})
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if scan > 0 && reused == 0 {
			t.Errorf("scan %d (workers %d) through a new Reader used %d batches, none of them one an earlier scan released", scan+1, workers, len(batches))
		}
		for b := range batches {
			released[b] = true
		}
	}
}
