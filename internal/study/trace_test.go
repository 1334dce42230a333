package study

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/world"
)

// traceSpec is chaos across every fault surface — the hardest setting
// for trace determinism, because events come from batch fates, sink
// retries, quarantines, and outage windows at once.
const traceSpec = "seed=7;sink-transient=0.004;sink-permanent=0.0004;truncate=0.15;corrupt=0.05;" +
	"fail-group=3;outage=gru:20-40;delay=0.2;delay-max=300us;retries=4;retry-base=50us"

// traceRun runs the generation study traced and returns the
// deterministic trace bytes plus the results.
func traceRun(t *testing.T, workers int, plan *faults.Plan) ([]byte, *Results) {
	t.Helper()
	cfg := detCfg()
	rec := trace.New(cfg.Seed)
	res, err := RunCtx(context.Background(), cfg, Options{Workers: workers, Plan: plan, Trace: rec})
	if err != nil {
		t.Fatalf("RunCtx(workers=%d): %v", workers, err)
	}
	var b bytes.Buffer
	if err := rec.Flush(&b); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("workers=%d: ring overwrote %d events; raise the buffer for this workload", workers, rec.Dropped())
	}
	return b.Bytes(), res
}

// The PR's tentpole guarantee: the trace file is byte-identical at any
// worker count, with and without a fault plan — same events, same
// order, same IDs — because every coordinate in it is logical, never
// physical.
func TestTraceBytesWorkerInvariant(t *testing.T) {
	for _, plan := range []*faults.Plan{nil, mustPlan(t, traceSpec)} {
		name := "plain"
		if plan != nil {
			name = "chaos"
		}
		t.Run(name, func(t *testing.T) {
			want, wantRes := traceRun(t, 1, plan)
			if len(want) == 0 {
				t.Fatal("empty trace")
			}
			for _, workers := range []int{2, 4} {
				got, res := traceRun(t, workers, plan)
				if !bytes.Equal(got, want) {
					t.Errorf("trace bytes differ between workers=1 and workers=%d", workers)
				}
				if a, b := renderNormalized(t, wantRes), renderNormalized(t, res); !bytes.Equal(a, b) {
					t.Errorf("traced report differs between workers=1 and workers=%d", workers)
				}
			}
		})
	}
}

// The trace must tell the same degradation story as the coverage
// ledger: per-group loss events, partitioned by cause, sum exactly to
// the ledger's counters — the reconciliation edgetrace causes enforces.
func TestTraceCausesReconcileWithLedger(t *testing.T) {
	raw, res := traceRun(t, 4, mustPlan(t, traceSpec))
	f, err := trace.Parse(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rep := trace.Causes(f)
	if !rep.Reconciled() {
		for _, c := range rep.Checks {
			if !c.OK() {
				t.Errorf("cause %q: traced %d, ledger %d", c.Loss, c.Traced, c.Ledger)
			}
		}
		t.Fatal("trace cause totals do not reconcile with the coverage ledger")
	}
	cov := res.Coverage
	if cov == nil {
		t.Fatal("chaos run returned no coverage ledger")
	}
	wantSender := int64(cov.SamplesLostOutage)
	wantNetwork := int64(cov.SamplesLostTruncated + cov.SamplesLostDropped)
	wantReceiver := int64(cov.SamplesLostQuarantined)
	if rep.Sender != wantSender || rep.Network != wantNetwork || rep.Receiver != wantReceiver {
		t.Fatalf("cause buckets = sender %d / network %d / receiver %d, ledger wants %d / %d / %d",
			rep.Sender, rep.Network, rep.Receiver, wantSender, wantNetwork, wantReceiver)
	}
	if rep.Retries != int64(cov.RetriesSpent) || rep.Recovered != int64(cov.TransientRecovered) {
		t.Fatalf("retries/recovered = %d/%d, ledger wants %d/%d",
			rep.Retries, rep.Recovered, cov.RetriesSpent, cov.TransientRecovered)
	}
	if cov.SamplesLost() > 0 && rep.Sender+rep.Network+rep.Receiver == 0 {
		t.Fatal("ledger shows loss but the trace attributes none")
	}
}

// A traced run must not change one byte of the report relative to the
// untraced run — tracing observes the pipeline, never steers it.
func TestTracingDoesNotChangeReport(t *testing.T) {
	cfg := detCfg()
	plain, err := RunCtx(context.Background(), cfg, Options{Workers: 4})
	if err != nil {
		t.Fatalf("untraced run: %v", err)
	}
	_, traced := traceRun(t, 4, nil)
	if a, b := renderNormalized(t, plain), renderNormalized(t, traced); !bytes.Equal(a, b) {
		t.Fatal("tracing changed the rendered report")
	}
}

// Wall-clock facts have one home: a traced sharded run, and a one-worker
// replay, expose their queue depths and their stage times — each
// Overview lane's fold, the shards' aggregation — on the registry. The
// replay's decode queue is there too, which reads decode-bound at depth
// 0 and fold-bound at capacity; so is the routes lane's input queue. The
// trace file a run writes is the only file — no physical sidecar beside
// it.
func TestWallClockFactsLiveOnMetrics(t *testing.T) {
	_, dir := writeDataset(t, detCfg())
	rec := trace.New(detCfg().Seed)
	for _, tc := range []struct {
		name   string
		run    func(reg *obs.Registry) error
		stages []string
	}{
		{"traced RunCtx workers=4", func(reg *obs.Registry) error {
			_, err := RunCtx(context.Background(), detCfg(), Options{Workers: 4, Reg: reg, Trace: rec})
			return err
		}, []string{"overview_lane", "agg_shard_0", "agg_shard_1", "agg_shard_2", "agg_shard_3"}},
		{"FromSegments workers=1", func(reg *obs.Registry) error {
			_, err := FromSegments(context.Background(), dir, Options{Workers: 1, Reg: reg})
			return err
		}, []string{"segstore_decode", "overview_lane", "agg_shard_0"}},
	} {
		reg := obs.NewRegistry()
		if err := tc.run(reg); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var expo bytes.Buffer
		if err := reg.WritePrometheus(&expo); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		value := func(series string) (float64, bool) {
			for _, line := range strings.Split(expo.String(), "\n") {
				if v, ok := strings.CutPrefix(line, series+" "); ok {
					f, err := strconv.ParseFloat(v, 64)
					return f, err == nil
				}
			}
			return 0, false
		}
		for _, stage := range tc.stages {
			series := fmt.Sprintf(`pipeline_queue_depth{stage=%q}`, stage)
			if _, ok := value(series); !ok {
				t.Errorf("%s: /metrics lacks %s", tc.name, series)
			}
		}
		for _, stage := range []string{"overview_fold", "overview_lane", "agg_shard"} {
			if n, _ := value(fmt.Sprintf(`study_stage_seconds_count{stage=%q,parent="study"}`, stage)); n == 0 {
				t.Errorf("%s: study_stage_seconds_count for %s is %v, want > 0", tc.name, stage, n)
			}
		}
	}

	out := t.TempDir()
	if err := rec.WriteFile(filepath.Join(out, "run.trace")); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	files, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		var names []string
		for _, f := range files {
			names = append(names, f.Name())
		}
		t.Fatalf("WriteFile left %v, want only run.trace", names)
	}
}

// A world study's report and trace do not depend on the order its
// groups arrive in: a work list shuffled or reversed gives the bytes of
// the one in group order, clean and under edgeident's chaos plan,
// traced. Each user group's samples still arrive in order, and a feed
// mark is keyed by its world day's segment ID, not by its arrival.
func TestReportIndependentOfGroupOrder(t *testing.T) {
	cfg := world.Config{Seed: 42, Groups: 8, Days: 2, SessionsPerGroupWindow: 12}
	const chaos = "seed=7;sink-transient=0.01;sink-permanent=0.001;truncate=0.1;corrupt=0.03;fail-group=2;outage=fra:10-30;retries=4;retry-base=50us"
	for _, plan := range []*faults.Plan{nil, mustPlan(t, chaos)} {
		runStudy := func(workers int, reorder func([]int)) (report, tr []byte) {
			t.Helper()
			rec := trace.New(cfg.Seed)
			res, _, err := run(context.Background(), &worldSource{w: world.New(cfg), reorder: reorder},
				Options{Workers: workers, Plan: plan, Trace: rec}, nil, nil)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			var b bytes.Buffer
			if err := rec.Flush(&b); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			return renderNormalized(t, res), b.Bytes()
		}
		wantReport, wantTrace := runStudy(1, nil)
		for _, c := range []struct {
			name    string
			workers int
			reorder func([]int)
		}{
			{"reversed", 1, slices.Reverse[[]int]},
			{"shuffled", 3, func(groups []int) {
				rand.New(rand.NewPCG(uint64(cfg.Groups), 1)).Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
			}},
		} {
			report, tr := runStudy(c.workers, c.reorder)
			if !bytes.Equal(report, wantReport) {
				t.Errorf("plan %v, %s at workers=%d: report differs from group order's: %s", plan != nil, c.name, c.workers, firstDiff(report, wantReport))
			}
			if !bytes.Equal(tr, wantTrace) {
				t.Errorf("plan %v, %s at workers=%d: trace differs from group order's: %s", plan != nil, c.name, c.workers, firstDiff(tr, wantTrace))
			}
		}
	}
}
