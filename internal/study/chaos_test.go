package study

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/faults"
	"repro/internal/trace"
	"repro/internal/world"
)

// mustPlan parses a plan spec or fails the test.
func mustPlan(t *testing.T, spec string) *faults.Plan {
	t.Helper()
	p, err := faults.ParsePlan(spec)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", spec, err)
	}
	return p
}

// The chaos analogue of the byte-identical guarantee: a fixed (seed,
// plan) pair must render the same degraded report — coverage section
// included — at any worker count, with every fault surface active at
// once.
func TestChaosRunByteIdenticalAcrossWorkers(t *testing.T) {
	const spec = "seed=7;sink-transient=0.004;sink-permanent=0.0004;truncate=0.15;corrupt=0.05;" +
		"fail-group=3;outage=gru:20-40;delay=0.2;delay-max=300us;retries=4;retry-base=50us"
	run := func(workers int) *Results {
		res, err := RunCtx(context.Background(), detCfg(), Options{Workers: workers, Plan: mustPlan(t, spec)})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	seqRes := run(1)
	if seqRes.Coverage == nil {
		t.Fatal("chaos run produced no coverage ledger")
	}
	if !seqRes.Coverage.Degraded() {
		t.Fatalf("plan injected nothing: %+v", seqRes.Coverage)
	}
	seq := renderNormalized(t, seqRes)
	if !bytes.Contains(seq, []byte("Coverage under faults")) {
		t.Fatal("degraded report has no coverage section")
	}
	for _, workers := range []int{2, 4} {
		res := run(workers)
		if res.Collector != seqRes.Collector {
			t.Errorf("workers=%d: collector stats %+v != sequential %+v", workers, res.Collector, seqRes.Collector)
		}
		got := renderNormalized(t, res)
		if !bytes.Equal(got, seq) {
			t.Fatalf("workers=%d chaos report differs from workers=1:\n%s", workers, firstDiff(got, seq))
		}
	}
}

// With injection disabled, Results carry no coverage ledger and the
// report has no coverage section — existing golden output is unchanged.
func TestNoPlanMeansNoCoverageSection(t *testing.T) {
	res, err := RunCtx(context.Background(), detCfg(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != nil {
		t.Fatalf("no-plan run produced a coverage ledger: %+v", res.Coverage)
	}
	if bytes.Contains(renderNormalized(t, res), []byte("Coverage under faults")) {
		t.Fatal("no-plan report contains a coverage section")
	}
}

// Sink-surface accounting: with only sink faults active, every
// non-hosting sample the clean run aggregates is either in the chaos
// run's store or attributed to a quarantined group — nothing leaks. The
// plan quarantines most groups but not all, so the store checks below
// compare something. The trace says how many rows each group had routed
// before its quarantine (its quarantine event's value less the row that
// triggered it); finish withdraws exactly those, so they are what the
// shard collectors accepted beyond the store, and a refused row that
// reached a shard would show there.
func TestSinkFaultAccountingIsExact(t *testing.T) {
	clean, err := RunCtx(context.Background(), detCfg(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// retries=2 with sink-streak=3 makes budget exhaustion reachable, so
	// both quarantine reasons (permanent, exhausted) occur.
	plan := mustPlan(t, "seed=11;sink-transient=0.001;sink-streak=3;sink-permanent=0.0001;retries=2;retry-base=20us")
	rec := trace.New(detCfg().Seed)
	res, err := RunCtx(context.Background(), detCfg(), Options{Workers: 4, Plan: plan, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	cov := res.Coverage
	if cov == nil || len(cov.Quarantined) == 0 {
		t.Fatalf("expected quarantined groups, coverage = %+v", cov)
	}
	if n := res.Store.Len(); n == 0 || n >= clean.Store.Len() {
		t.Fatalf("chaos store holds %d of the clean run's %d groups; the plan must quarantine some but not all", n, clean.Store.Len())
	}
	reasons := map[string]bool{}
	for _, q := range cov.Quarantined {
		reasons[q.Reason] = true
	}
	if len(reasons) != 2 {
		t.Errorf("quarantine reasons %v, want both permanent and exhausted", reasons)
	}
	if got, want := res.Store.TotalSamples+cov.SamplesLostQuarantined, clean.Collector.Accepted; got != want {
		t.Errorf("store (%d) + quarantined (%d) = %d, want the clean run's %d accepted samples",
			res.Store.TotalSamples, cov.SamplesLostQuarantined, got, want)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring overwrote %d events", rec.Dropped())
	}
	routed := 0
	for _, e := range rec.Events() {
		if e.Kind == trace.KQuarantine && e.Stage == "sink" {
			routed += int(e.Value) - 1
		}
	}
	if got := res.Collector.Accepted - res.Store.TotalSamples; got != routed {
		t.Errorf("accepted (%d) - stored (%d) = %d, want the %d rows quarantined groups had routed",
			res.Collector.Accepted, res.Store.TotalSamples, got, routed)
	}
	if cov.RetriesSpent == 0 || cov.TransientRecovered == 0 {
		t.Errorf("transient machinery idle: retries=%d recovered=%d", cov.RetriesSpent, cov.TransientRecovered)
	}
	// Quarantined groups must be gone from the store, and only them:
	// clean store keys = chaos store keys ∪ quarantined keys.
	quarantined := make(map[string]bool, len(cov.Quarantined))
	for _, q := range cov.Quarantined {
		quarantined[q.Key] = true
	}
	for _, g := range res.Store.Groups() {
		if quarantined[g.Key.String()] {
			t.Errorf("quarantined group %s still in store", g.Key)
		}
	}
	if got, want := res.Store.Len()+len(cov.Quarantined), clean.Store.Len(); got != want {
		t.Errorf("chaos groups (%d) + quarantined (%d) = %d, want clean %d", res.Store.Len(), len(cov.Quarantined), got, want)
	}
	for _, g := range clean.Store.Groups() {
		if res.Store.Group(g.Key) == nil && !quarantined[g.Key.String()] {
			t.Errorf("group %s vanished without a quarantine entry", g.Key)
		}
	}
}

// Batch-surface accounting: plan-failed groups are dropped whole, with
// exactly their generated sample counts on the ledger, and the run
// completes.
func TestFailGroupDropsExactBatches(t *testing.T) {
	cfg := detCfg()
	sizes := map[int]int{}
	w := world.New(cfg)
	if err := w.GenerateBatches(context.Background(), 1, func(b world.Batch) error {
		sizes[b.Group] = len(b.Samples)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	plan := mustPlan(t, "fail-group=2|5")
	res, err := RunCtx(context.Background(), cfg, Options{Workers: 3, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	cov := res.Coverage
	if cov.GroupsDropped != 2 {
		t.Fatalf("GroupsDropped = %d, want 2 (coverage %+v)", cov.GroupsDropped, cov)
	}
	if want := sizes[2] + sizes[5]; cov.SamplesLostDropped != want {
		t.Errorf("SamplesLostDropped = %d, want %d (the two groups' full batches)", cov.SamplesLostDropped, want)
	}
	var keys []string
	for _, q := range cov.Quarantined {
		keys = append(keys, q.Key)
	}
	if len(keys) != 2 || keys[0] != "world-group-0002" || keys[1] != "world-group-0005" {
		t.Errorf("quarantine ledger = %v, want the two failed world groups", keys)
	}
}

// Outage accounting: a PoP-wide outage loses exactly the sessions the
// clean run would have served there, and the degraded dataset contains
// none of them.
func TestOutageAccountingIsExact(t *testing.T) {
	cfg := detCfg()
	baseline := world.New(cfg).GenerateAll()
	pop := baseline[0].PoP
	expect := 0
	for _, s := range baseline {
		if s.PoP == pop {
			expect++
		}
	}
	windows := cfg.Windows()
	plan := mustPlan(t, "outage="+pop+":0-"+itoa(windows))
	res, err := RunCtx(context.Background(), cfg, Options{Workers: 2, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage.SamplesLostOutage != expect {
		t.Errorf("SamplesLostOutage = %d, want %d (all %s sessions)", res.Coverage.SamplesLostOutage, expect, pop)
	}
	for _, g := range res.Store.Groups() {
		if g.Key.PoP == pop {
			t.Errorf("group %s aggregated at downed PoP", g.Key)
		}
	}
}

// FailFast flips recovery off: the first non-recoverable fault poisons
// the run and surfaces the fault, instead of quarantining.
func TestFailFastPropagatesFault(t *testing.T) {
	_, err := RunCtx(context.Background(), detCfg(), Options{
		Workers: 2, Plan: mustPlan(t, "fail-group=1"), FailFast: true,
	})
	var fe *faults.FaultError
	if !errors.As(err, &fe) || fe.Surface != faults.SurfaceBatch {
		t.Fatalf("err = %v, want a wrapped batch FaultError", err)
	}

	_, err = RunCtx(context.Background(), detCfg(), Options{
		Workers: 2, Plan: mustPlan(t, "seed=11;sink-permanent=0.001"), FailFast: true,
	})
	if !errors.As(err, &fe) || fe.Surface != faults.SurfaceSink {
		t.Fatalf("err = %v, want a wrapped sink FaultError", err)
	}
}

// The replay path shares the sink surface: a segment replay under a
// plan renders — coverage included — the report the rows oracle renders
// under the same plan, at every worker count. Sink fates key on the
// sample, so neither the currency nor the batch boundaries may matter.
func TestReplayChaosByteIdentical(t *testing.T) {
	rows, dir := writeDataset(t, detCfg())
	spec := "seed=5;sink-transient=0.005;sink-permanent=0.0005;retries=3;retry-base=20us"
	seqRes := rowsOracle(t, rows, Options{Workers: 1, Plan: mustPlan(t, spec)})
	if seqRes.Coverage == nil || !seqRes.Coverage.Degraded() {
		t.Fatalf("plan injected nothing on the replay path: %+v", seqRes.Coverage)
	}
	seq := renderNormalized(t, seqRes)
	for _, workers := range []int{1, 2, 4} {
		res, err := FromSegments(context.Background(), dir, Options{Workers: workers, Plan: mustPlan(t, spec)})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := renderNormalized(t, res); !bytes.Equal(got, seq) {
			t.Fatalf("workers=%d segment chaos report differs from the rows oracle's:\n%s", workers, firstDiff(got, seq))
		}
	}
}
