package study

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/analysis"
	"repro/internal/sample"
	"repro/internal/segstore"
	"repro/internal/world"
)

// cancelAfter wraps a source so that the run's context is cancelled
// when the n-th batch is delivered — a deterministic mid-run SIGINT.
type cancelAfter struct {
	source
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) deliver(ctx context.Context, e *env, sk sink) error {
	return c.source.deliver(ctx, e, &cancelSink{sink: sk, c: c})
}

type cancelSink struct {
	sink
	c    *cancelAfter
	seen int
}

func (s *cancelSink) tick() {
	if s.seen++; s.seen == s.c.n {
		s.c.cancel()
	}
}

func (s *cancelSink) rows(ctx context.Context, seg int, samples []sample.Sample) error {
	s.tick()
	return s.sink.rows(ctx, seg, samples)
}

func (s *cancelSink) columns(ctx context.Context, b *segstore.ColumnBatch) error {
	s.tick()
	return s.sink.columns(ctx, b)
}

// A cancelled context abandons the study whatever feeds it and at any
// worker count: no Results, context.Canceled, and no column batch left
// outstanding (TestMain's leak check covers the whole table).
func TestCancelledRunReturnsNoResults(t *testing.T) {
	cfg := detCfg() // 17 groups, 17 segments: cancelling at batch 2 is mid-run
	_, dir := writeDataset(t, cfg)
	r, err := segstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	sources := []struct {
		name string
		make func() source
	}{
		{"world", func() source { return &worldSource{w: world.New(cfg)} }},
		{"segments", func() source { return &segmentSource{r: r, segs: r.Manifest().Segments} }},
	}
	before, dblBefore := segstore.LeakStats()
	for _, src := range sources {
		for _, workers := range []int{1, 4} {
			for _, when := range []string{"pre-cancelled", "mid-run"} {
				ctx, cancel := context.WithCancel(context.Background())
				s := src.make()
				if when == "mid-run" {
					s = &cancelAfter{source: s, n: 2, cancel: cancel}
				} else {
					cancel()
				}
				res, _, err := run(ctx, s, Options{Workers: workers}, nil, nil)
				cancel()
				if !errors.Is(err, context.Canceled) || res != nil {
					t.Errorf("%s workers=%d %s: got (%v, %v), want (nil, context.Canceled)", src.name, workers, when, res, err)
				}
				if out, dbl := segstore.LeakStats(); out != before || dbl != dblBefore {
					t.Fatalf("%s workers=%d %s: %d outstanding batches (want %d), %d double releases (want %d)",
						src.name, workers, when, out, before, dbl, dblBefore)
				}
			}
		}
	}

	// The exported wrappers hand their context to the same loop.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		opt := Options{Workers: workers}
		if res, err := RunCtx(ctx, cfg, opt); !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("RunCtx workers=%d: got (%v, %v)", workers, res, err)
		}
		if res, err := FromSegments(ctx, dir, opt); !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("FromSegments workers=%d: got (%v, %v)", workers, res, err)
		}
	}
}

// RunDeaggregation is the standard study plus a second, finer store fed
// from the same delivery: its Results must be Run's, and the §3.3
// comparison is pinned to what the standalone loop it used to carry
// computed for this world.
func TestRunDeaggregationMatchesRun(t *testing.T) {
	cfg := world.Config{Seed: 13, Groups: 8, Days: 1, SessionsPerGroupWindow: 40}
	res, d := RunDeaggregation(cfg)
	if got, want := renderNormalized(t, res), renderNormalized(t, Run(cfg)); !bytes.Equal(got, want) {
		t.Fatalf("RunDeaggregation report differs from Run:\n%s", firstDiff(got, want))
	}
	want := analysis.DeaggregationResult{
		BaseVariability: 1.4396343218413605, FineVariability: 0.2311711388340427,
		BaseCoverage: 0.42112299465240643, FineCoverage: 0.004087699739873653,
		BaseGroups: 8, FineGroups: 32,
	}
	if d != want {
		t.Errorf("deaggregation result = %+v, want %+v", d, want)
	}
}
