package study

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/segstore"
	"repro/internal/world"
)

// TestFromSamplesMatchesInProcess: writing the dataset to disk and
// analysing it back must produce the same aggregations as the
// in-process pipeline.
func TestFromSamplesMatchesInProcess(t *testing.T) {
	cfg := world.Config{Seed: 13, Groups: 8, Days: 1, SessionsPerGroupWindow: 6}

	// In-process run.
	direct := Run(cfg)

	// Disk round trip: generate → segment dataset → FromSegments, the
	// writer filtering first exactly as cmd/edgesim does.
	_, dir := writeDataset(t, cfg)
	loaded, err := FromSegments(context.Background(), dir, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	if loaded.Store.TotalSamples != direct.Store.TotalSamples {
		t.Errorf("samples: loaded %d vs direct %d", loaded.Store.TotalSamples, direct.Store.TotalSamples)
	}
	if loaded.Store.Len() != direct.Store.Len() {
		t.Errorf("groups: loaded %d vs direct %d", loaded.Store.Len(), direct.Store.Len())
	}
	if loaded.Cfg.Days != cfg.Days {
		t.Errorf("inferred days = %d, want %d", loaded.Cfg.Days, cfg.Days)
	}
	// Medians agree (identical inputs, identical digests).
	dm := direct.Overview.MinRTT.Quantile(0.5)
	lm := loaded.Overview.MinRTT.Quantile(0.5)
	if dm != lm {
		t.Errorf("overview median: loaded %v vs direct %v", lm, dm)
	}
	// Degradation totals agree.
	if loaded.DegMinRTT.TotalBytes != direct.DegMinRTT.TotalBytes {
		t.Errorf("degradation bytes: loaded %d vs direct %d",
			loaded.DegMinRTT.TotalBytes, direct.DegMinRTT.TotalBytes)
	}
}

// An empty dataset (a manifest, no segments) is still a dataset.
func TestFromSamplesEmpty(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "empty.seg")
	sw, err := segstore.Create(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := FromSegments(context.Background(), dir, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.TotalSamples != 0 || res.Cfg.Days != 1 {
		t.Errorf("empty dataset handled badly: %+v", res.Cfg)
	}
}
