package study

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/segstore"
)

// TestMain runs the whole study suite — golden reports, chaos runs,
// sharded/columnar equivalence — under segstore leak-check mode and
// asserts the batch ownership invariant afterwards: every pooled column
// batch acquired by any run (including poisoned chaos runs and their
// drained error paths) was released exactly once. Poisoning also makes
// any use-after-Release read garbage loudly, so a stale view corrupts a
// golden report instead of passing silently.
func TestMain(m *testing.M) {
	segstore.SetLeakCheck(true)
	code := m.Run()
	if out, dbl := segstore.LeakStats(); code == 0 && (out != 0 || dbl != 0) {
		fmt.Fprintf(os.Stderr, "segstore leak check: %d outstanding batches, %d double releases after study tests\n", out, dbl)
		code = 1
	}
	os.Exit(code)
}

// Regression for the ingest.columns error paths: a fail-fast fault plan
// poisons the sharded columnar pipeline mid-run, which used to strand
// (1) the view ingest.columns had cut just before its shard Send failed —
// Slice retains the parent, so the root batch leaked with it — and
// (2) every view buffered in the shard streams and every batch parked
// in the scanner's reorder window. All of them must be released.
func TestFromSegmentsFailFastReleasesAllBatches(t *testing.T) {
	cfg := detCfg()
	cfg.Days = 2
	_, dir := writeDataset(t, cfg)

	before, dblBefore := segstore.LeakStats()
	for _, workers := range []int{1, 2, 4} {
		_, err := FromSegments(context.Background(), dir, Options{
			Workers: workers, Plan: mustPlan(t, "seed=11;sink-permanent=0.01"), FailFast: true,
		})
		if err == nil {
			t.Fatalf("workers=%d: fail-fast run with permanent sink faults did not fail", workers)
		}
		out, dbl := segstore.LeakStats()
		if out != before {
			t.Fatalf("workers=%d: outstanding batches = %d, want %d — poisoned run leaked", workers, out, before)
		}
		if dbl != dblBefore {
			t.Fatalf("workers=%d: double releases = %d, want %d — error paths released a batch twice", workers, dbl, dblBefore)
		}
	}
}

// Each error path of the ingest that holds a view must release it: a
// failed Send leaves the item with its sender — ingest.columns' view
// bound for the routes lane, routeColumns' views bound for the shards —
// and drainOnError gives back what a poisoned stage's input still
// buffers. Every Send here goes into a full stream under a cancelled
// context, so it has only the cancellation to select: every run takes
// every path.
func TestIngestErrorPathsRelease(t *testing.T) {
	_, dir := writeDataset(t, detCfg())
	r, err := segstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	full := func() *pipeline.Stream[item] {
		s := pipeline.NewStream[item](1)
		_ = s.Send(context.Background(), item{}) // an empty slot: cannot fail
		return s
	}

	in := newIngest(2, nil, nil, nil, nil)
	before, _ := segstore.LeakStats()
	err = r.ScanColumns(context.Background(), 1, nil, func(b *segstore.ColumnBatch) error {
		defer b.Release()
		in.lane = full()
		if err := in.columns(cancelled, b); !errors.Is(err, context.Canceled) {
			return fmt.Errorf("lane send: error %v, want context.Canceled", err)
		}
		for _, sh := range in.shards {
			sh.stream = full()
		}
		if err := in.routeColumns(cancelled, b); !errors.Is(err, context.Canceled) {
			return fmt.Errorf("shard send: error %v, want context.Canceled", err)
		}
		s := pipeline.NewStream[item](1)
		_ = s.Send(context.Background(), item{cols: b.Slice(0, b.Len())}) // an empty slot: cannot fail
		s.Close()
		if err := drainOnError(s, context.Canceled); !errors.Is(err, context.Canceled) {
			return fmt.Errorf("drain: error %v, want context.Canceled", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out, _ := segstore.LeakStats(); out != before {
		t.Fatalf("outstanding batches = %d, want %d", out, before)
	}
}
