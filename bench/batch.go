package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/agg"
	"repro/internal/analysis"
	"repro/internal/collector"
	"repro/internal/segstore"
	"repro/internal/study"
	"repro/internal/world"
)

// oracleReport is the reference every batch_replay report is checked
// against: the same dataset aggregated row at a time, a path that
// shares no fold code with the column batches the timed op uses.
func oracleReport(dir string) ([]byte, error) {
	rep, _, err := reportOf(dir, study.Options{Workers: 1, RowOracle: true})
	return rep, err
}

// batchOp is batch_replay's operation: the analyst's path from
// segments at rest to a rendered report.
func batchOp(dir string) ([]byte, error) {
	rep, _, err := reportOf(dir, study.Options{Workers: 1})
	return rep, err
}

// studyPass times study.FromSegments alone under opt.
func studyPass(dir string, opt study.Options) (float64, error) {
	t0 := time.Now()
	_, err := study.FromSegments(context.Background(), dir, opt)
	return float64(time.Since(t0)), err
}

// batchOpDecomposed is batchOp taken apart: the benchmark makes the
// calls study.FromSegments makes at workers 1, with a span around each
// one. Time inside the scan's emit callback belongs to the sinks; what
// is left of the scan span is the scan's own. The report must come out
// byte for byte the same, so this is the same program.
func batchOpDecomposed(rec *recorder, op int, dir string) ([]byte, error) {
	ctx := context.Background()
	root := rec.start(noSpan, op, "bench.batch_replay")

	sp := rec.start(root, op, "segstore.open")
	r, err := segstore.Open(dir)
	sp.end(0)
	if err != nil {
		return nil, err
	}

	store := agg.NewStore()
	overview := analysis.NewOverview()
	col := collector.New()
	var offer span
	col.AddColumnSink(func(b *segstore.ColumnBatch) error {
		sp := rec.start(offer, op, "agg.add_batch")
		store.AddBatch(b)
		sp.end(b.Len())
		return nil
	})
	col.AddColumnSink(func(b *segstore.ColumnBatch) error {
		sp := rec.start(offer, op, "analysis.overview")
		overview.AddColumns(b)
		sp.end(b.Len())
		return nil
	})
	scan := rec.start(root, op, "segstore.scan")
	scanned := 0
	err = r.ScanColumns(ctx, 1, nil, func(b *segstore.ColumnBatch) error {
		n := b.Len()
		scanned += n
		offer = rec.start(scan, op, "collector.offer")
		col.OfferColumns(b)
		offer.end(n)
		b.Release()
		return col.Err()
	})
	scan.end(scanned)
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	res := &study.Results{Cfg: inferredCfg(store), Collector: col.Stats(), Overview: overview, Store: store}
	timed := func(name string, f func()) {
		sp := rec.start(root, op, name)
		f()
		sp.end(store.Len())
	}
	windows := store.TotalWindows
	params := analysis.DefaultClassifyParams(res.Cfg.Days)
	timed("analysis.degradation", func() {
		res.DegMinRTT = analysis.Degradation(store, analysis.MetricMinRTT)
		res.DegHD = analysis.Degradation(store, analysis.MetricHDratio)
	})
	timed("analysis.opportunity", func() {
		res.OppMinRTT = analysis.Opportunity(store, analysis.MetricMinRTT)
		res.OppHD = analysis.Opportunity(store, analysis.MetricHDratio)
	})
	timed("analysis.classify", func() {
		res.Table1DegMinRTT = res.DegMinRTT.Classify(windows, params, study.Table1DegMinRTTMs)
		res.Table1DegHD = res.DegHD.Classify(windows, params, study.Table1DegHD)
		res.Table1OppMinRTT = res.OppMinRTT.Classify(windows, params, study.Table1OppMinRTTMs)
		res.Table1OppHD = res.OppHD.Classify(windows, params, study.Table1OppHD)
	})
	timed("analysis.relationships", func() {
		res.Table2MinRTT = res.OppMinRTT.Relationships(5)
		res.Table2HD = res.OppHD.Relationships(0.05)
	})

	sp = rec.start(root, op, "study.render")
	rep := render(res)
	sp.end(len(rep))
	root.end(scanned)
	return rep, nil
}

// inferredCfg is the dataset shape study.FromSegments reports for a
// replayed store (its helper of the same name is not exported).
func inferredCfg(store *agg.Store) world.Config {
	covered := store.TotalWindows - store.FirstWindow()
	days := (covered + world.WindowsPerDay - 1) / world.WindowsPerDay
	if days < 1 {
		days = 1
	}
	return world.Config{
		Groups: store.Len(), Days: days,
		SessionsPerGroupWindow: float64(store.TotalSamples) / float64(max(1, store.Len()*store.TotalWindows)),
	}
}

// checkReport turns a report mismatch into the error a failed
// operation is counted by.
func checkReport(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("report differs from the reference (%d bytes, reference %d)", len(got), len(want))
	}
	return nil
}

// segmentBlobs reads dir's manifest and every segment file it lists,
// in manifest order.
func segmentBlobs(dir string) (*segstore.Manifest, [][]byte, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	blobs := make([][]byte, len(man.Segments))
	for i, m := range man.Segments {
		if blobs[i], err = os.ReadFile(filepath.Join(dir, m.File)); err != nil {
			return nil, nil, err
		}
	}
	return man, blobs, nil
}

// decodeProbe decodes every segment of dir from memory: the decoder
// with no file read, checksum of the file or pooling around it. It
// returns nanoseconds per sample.
func decodeProbe(dir string) (float64, error) {
	_, blobs, err := segmentBlobs(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	t0 := time.Now()
	for _, blob := range blobs {
		b, err := segstore.DecodeSegmentColumns(blob)
		if err != nil {
			return 0, err
		}
		n += b.Len()
		b.Release()
	}
	return float64(time.Since(t0)) / float64(n), nil
}

// scanPass opens dir and scans it, releasing every batch untouched.
func scanPass(dir string, workers int) (float64, error) {
	t0 := time.Now()
	r, err := segstore.Open(dir)
	if err != nil {
		return 0, err
	}
	err = r.ScanColumns(context.Background(), workers, nil, func(b *segstore.ColumnBatch) error {
		b.Release()
		return nil
	})
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	return float64(time.Since(t0)), err
}

// mergeSealProbe aggregates the even and the odd segments of dir into
// two stores — the same groups over disjoint days, the shape per-chunk
// partial aggregates would have — then times folding one into the
// other and sealing the result.
func mergeSealProbe(dir string) (mergeNs, sealNs float64, err error) {
	r, err := segstore.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	halves := [2]*agg.Store{agg.NewStore(), agg.NewStore()}
	i := 0
	err = r.ScanColumns(context.Background(), 1, nil, func(b *segstore.ColumnBatch) error {
		halves[i%2].AddBatch(b)
		i++
		b.Release()
		return nil
	})
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	halves[0].Merge(halves[1])
	t1 := time.Now()
	halves[0].Seal(1)
	return float64(t1.Sub(t0)), float64(time.Since(t1)), nil
}
