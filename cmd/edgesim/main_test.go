package main

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/seggen"
	"repro/internal/segstore"
	"repro/internal/world"
)

// chaosCfg keeps every group inside one segment chunk, so a group's
// fate is one segment's fate.
func chaosCfg() world.Config {
	return world.Config{Seed: 5, Groups: 24, Days: 1, SessionsPerGroupWindow: 6}
}

const chaosSpec = "seed=13;sink-transient=0.15;sink-permanent=0.04;truncate=0.2;corrupt=0.08;" +
	"fail-group=3;outage=fra:10-30;retries=4;retry-base=20us"

func chaosDataset(t *testing.T, workers int, spec string) (string, seggen.Result) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ds.seg")
	res, err := generate(t, context.Background(), chaosCfg(), dir, workers, spec, nil)
	if err != nil {
		t.Fatalf("seggen.Run(workers=%d, plan=%q): %v", workers, spec, err)
	}
	return dir, res
}

// The degraded dataset must not depend on the worker count: same seed,
// same plan, byte-identical output and identical degradation ledger.
func TestChaosDatasetByteIdenticalAcrossWorkers(t *testing.T) {
	base, baseRes := chaosDataset(t, 1, chaosSpec)
	baseCov := baseRes.Coverage
	if baseCov == nil || !baseCov.Degraded() {
		t.Fatalf("plan %q did not degrade the run: %+v", chaosSpec, baseCov)
	}
	if baseCov.TransientRecovered == 0 {
		t.Fatal("plan injected no recovered transients — the retry surface went unexercised")
	}
	if baseCov.SamplesLostOutage == 0 {
		t.Fatal("the fra outage suppressed nothing — the PoP surface went unexercised")
	}
	for _, workers := range []int{2, 4} {
		got, res := chaosDataset(t, workers, chaosSpec)
		sameDir(t, dirBytes(t, got), dirBytes(t, base), "chaos")
		if res.Written != baseRes.Written {
			t.Errorf("workers=%d wrote %d samples, workers=1 wrote %d", workers, res.Written, baseRes.Written)
		}
		if !reflect.DeepEqual(res.Coverage, baseCov) {
			t.Errorf("workers=%d coverage differs: %+v vs %+v", workers, res.Coverage, baseCov)
		}
	}
}

// With write faults only, every sample is either committed or accounted
// as dropped — written + dropped equals the clean run's accepted count
// — and the dataset says the same: its segments hold the written
// samples, its tombstones the dropped ones.
func TestChaosWriteFaultAccountingIsExact(t *testing.T) {
	_, clean := chaosDataset(t, 4, "")
	if clean.Written != clean.Stats.Accepted {
		t.Fatalf("clean run wrote %d of %d accepted samples", clean.Written, clean.Stats.Accepted)
	}
	dir, res := chaosDataset(t, 4, "seed=3;sink-transient=0.2;sink-permanent=0.2;retries=3;retry-base=10us")
	cov := res.Coverage
	if res.Stats.Accepted != clean.Stats.Accepted {
		t.Fatalf("write faults changed the collector's view: accepted %d vs %d", res.Stats.Accepted, clean.Stats.Accepted)
	}
	if cov.SamplesLostDropped == 0 {
		t.Fatal("plan injected no permanent write faults; pick a hotter plan")
	}
	if res.Written+cov.SamplesLostDropped != clean.Stats.Accepted {
		t.Fatalf("accounting leak: %d written + %d dropped != %d accepted", res.Written, cov.SamplesLostDropped, clean.Stats.Accepted)
	}
	r, err := segstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }() // read-only dataset; nothing to flush
	man, tombstoned := r.Manifest(), 0
	for _, tb := range man.Tombstones {
		tombstoned += tb.SamplesLost
	}
	if man.TotalSamples() != res.Written || tombstoned != cov.SamplesLostDropped {
		t.Fatalf("manifest holds %d samples and tombstones %d; the run wrote %d and dropped %d",
			man.TotalSamples(), tombstoned, res.Written, cov.SamplesLostDropped)
	}
}

// With no plan the chaos machinery must be fully dormant: no ledger
// materialises, and four workers commit the same directory as one.
func TestNoPlanMatchesSequentialDataset(t *testing.T) {
	seq, seqRes := chaosDataset(t, 1, "")
	par, parRes := chaosDataset(t, 4, "")
	if seqRes.Coverage != nil || parRes.Coverage != nil {
		t.Fatal("coverage ledger materialised without a fault plan")
	}
	sameDir(t, dirBytes(t, par), dirBytes(t, seq), "no plan")
	if !segstore.IsDataset(seq) {
		t.Fatalf("%s does not look like a segment store", seq)
	}
}
