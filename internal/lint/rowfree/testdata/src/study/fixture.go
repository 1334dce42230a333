// Fixture for the rowfree analyzer: the package is named study, so the
// segment hot path's columnar contract applies. Suppression via
// //edgelint:allow is the suite's job; this fixture checks the raw
// findings.
package study

import (
	"context"

	"repro/internal/sample"
	"repro/internal/segstore"
)

func materialize(b *segstore.ColumnBatch) []sample.Sample {
	return b.AppendRows(nil) // want "AppendRows materializes rows from a column batch"
}

func rowScan(ctx context.Context, r *segstore.Reader) error {
	return r.Scan(ctx, 1, nil, func(rows []sample.Sample) error { return nil }) // want "Scan row-emitting segment read"
}

// --- accepted forms ---

func columnar(ctx context.Context, r *segstore.Reader) error {
	return r.ScanColumns(ctx, 1, nil, func(b *segstore.ColumnBatch) error {
		b.Release()
		return nil
	})
}

func columnarDecode(data []byte) (*segstore.ColumnBatch, error) {
	return segstore.DecodeSegmentColumns(data)
}
