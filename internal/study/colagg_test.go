package study

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/segstore"
	"repro/internal/trace"
	"repro/internal/world"
)

// The columnar aggregation property: over randomized corpora, filters,
// and worker counts, the batch path's report is byte-identical to the
// row oracle's (opt.RowOracle) and to the sequential rows oracle over
// the same dataset. This is the acceptance test of the row-free read
// path — one diverging digest flush, misordered run, or filter
// disagreement anywhere between segment decode and the sealed store
// shows up here as a one-byte diff.
func TestColumnarAggregationMatchesRowOracle(t *testing.T) {
	r := rng.New(99).Child("colagg")
	for trial := 0; trial < 3; trial++ {
		cfg := world.Config{
			Seed:                   uint64(1000 + trial),
			Groups:                 7 + r.IntN(10),
			Days:                   1 + r.IntN(2),
			SessionsPerGroupWindow: 6 + float64(r.IntN(12)),
		}
		rows, dir := writeDataset(t, cfg)

		filters := []*segstore.Filter{
			nil,
			{From: time.Duration(1+r.IntN(10)) * time.Hour},
			{Countries: []string{"US", "IN", "BR"}, PoPs: nil},
		}
		for fi, f := range filters {
			want := rowsOracle(t, rows, Options{Workers: 1, Filter: f})
			wantReport := renderNormalized(t, want)

			for _, workers := range []int{1, 2, 4} {
				for _, oracle := range []bool{false, true} {
					res, err := FromSegments(context.Background(), dir, Options{
						Workers: workers, Filter: f, RowOracle: oracle,
					})
					if err != nil {
						t.Fatalf("trial=%d filter=%d workers=%d oracle=%v: %v", trial, fi, workers, oracle, err)
					}
					if res.Collector != want.Collector {
						t.Errorf("trial=%d filter=%d workers=%d oracle=%v: collector stats %+v != %+v",
							trial, fi, workers, oracle, res.Collector, want.Collector)
					}
					if got := renderNormalized(t, res); !bytes.Equal(got, wantReport) {
						t.Fatalf("trial=%d filter=%d workers=%d oracle=%v: report differs from row replay:\n%s",
							trial, fi, workers, oracle, firstDiff(got, wantReport))
					}
				}
			}
		}
	}
}

// segTraceRun scans the segment dataset traced (and optionally under a
// fault plan), returning the trace bytes and results.
func segTraceRun(t *testing.T, dir string, workers int, plan *faults.Plan, oracle bool) ([]byte, *Results) {
	t.Helper()
	rec := trace.New(7)
	res, err := FromSegments(context.Background(), dir, Options{
		Workers: workers, Plan: plan, Trace: rec, RowOracle: oracle,
	})
	if err != nil {
		t.Fatalf("FromSegments(workers=%d oracle=%v): %v", workers, oracle, err)
	}
	var b bytes.Buffer
	if err := rec.Flush(&b); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring overwrote %d events", rec.Dropped())
	}
	return b.Bytes(), res
}

// Chaos and tracing on the batch path: with a fault plan active and the
// flight recorder on, the columnar scan must produce the same degraded
// report and the same trace bytes as the row oracle, at every worker
// count. Fault decisions are per sample, made by index into the batch
// on the routes lane in either currency — this test is what proves the
// two walks agree.
func TestColumnarChaosTraceByteIdentical(t *testing.T) {
	cfg := detCfg()
	_, dir := writeDataset(t, cfg)
	// Segment replay has no generator, so only the sink/shard surfaces
	// apply.
	plan := mustPlan(t, "seed=7;sink-transient=0.004;sink-permanent=0.0004;fail-group=3;delay=0.2;delay-max=300us;retries=4;retry-base=50us")

	wantTrace, wantRes := segTraceRun(t, dir, 1, plan, true)
	if wantRes.Coverage == nil || !wantRes.Coverage.Degraded() {
		t.Fatal("plan injected nothing on the segment path")
	}
	wantReport := renderNormalized(t, wantRes)
	if len(wantTrace) == 0 {
		t.Fatal("empty trace")
	}

	for _, workers := range []int{1, 2, 4} {
		for _, oracle := range []bool{false, true} {
			if workers == 1 && oracle {
				continue // the baseline itself
			}
			gotTrace, res := segTraceRun(t, dir, workers, plan, oracle)
			if res.Collector != wantRes.Collector {
				t.Errorf("workers=%d oracle=%v: collector stats %+v != %+v", workers, oracle, res.Collector, wantRes.Collector)
			}
			if got := renderNormalized(t, res); !bytes.Equal(got, wantReport) {
				t.Fatalf("workers=%d oracle=%v: chaos report differs:\n%s", workers, oracle, firstDiff(got, wantReport))
			}
			if !bytes.Equal(gotTrace, wantTrace) {
				t.Fatalf("workers=%d oracle=%v: trace bytes differ from the row oracle's", workers, oracle)
			}
		}
	}

	// Tracing without a plan must also agree across currencies.
	cleanTrace, cleanRes := segTraceRun(t, dir, 2, nil, true)
	colTrace, colRes := segTraceRun(t, dir, 2, nil, false)
	if !bytes.Equal(renderNormalized(t, colRes), renderNormalized(t, cleanRes)) {
		t.Fatal("traced clean report differs between currencies")
	}
	if !bytes.Equal(colTrace, cleanTrace) {
		t.Fatal("clean trace bytes differ between currencies")
	}
}

// The day-inference fix: a -from filter that prunes the leading day
// must not inflate the inferred day count. A 2-day dataset filtered to
// its second day covers 96 windows, so every replay path must report
// Days=1 — and they must agree with each other byte for byte.
func TestInferredDaysUnderFromFilter(t *testing.T) {
	cfg := detCfg()
	cfg.Days = 2
	rows, dir := writeDataset(t, cfg)
	f := &segstore.Filter{From: 24 * time.Hour}

	seq := rowsOracle(t, rows, Options{Workers: 1, Filter: f})
	if seq.Cfg.Days != 1 {
		t.Fatalf("sequential rows oracle inferred Days=%d for a one-day slice, want 1", seq.Cfg.Days)
	}
	if seq.Store.FirstWindow() != 96 || seq.Store.TotalWindows != 192 {
		t.Fatalf("window coverage [%d, %d), want [96, 192)", seq.Store.FirstWindow(), seq.Store.TotalWindows)
	}
	want := renderNormalized(t, seq)

	segRes, err := FromSegments(context.Background(), dir, Options{Workers: 4, Filter: f})
	if err != nil {
		t.Fatal(err)
	}
	if segRes.Cfg.Days != 1 {
		t.Fatalf("FromSegments inferred Days=%d, want 1", segRes.Cfg.Days)
	}
	if got := renderNormalized(t, segRes); !bytes.Equal(got, want) {
		t.Fatalf("filtered FromSegments differs from the sequential rows oracle:\n%s", firstDiff(got, want))
	}

	shardedRes := rowsOracle(t, rows, Options{Workers: 3, Filter: f})
	if shardedRes.Cfg.Days != 1 {
		t.Fatalf("sharded rows oracle inferred Days=%d, want 1", shardedRes.Cfg.Days)
	}
	if got := renderNormalized(t, shardedRes); !bytes.Equal(got, want) {
		t.Fatalf("filtered sharded rows report differs from the sequential rows oracle:\n%s", firstDiff(got, want))
	}

	// An unfiltered replay still reports the full two days.
	full, err := FromSegments(context.Background(), dir, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if full.Cfg.Days != 2 {
		t.Fatalf("unfiltered replay inferred Days=%d, want 2", full.Cfg.Days)
	}
}
