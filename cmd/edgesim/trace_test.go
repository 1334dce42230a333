package main

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// tracedDataset runs the writer traced and returns the dataset
// directory plus the deterministic trace bytes.
func tracedDataset(t *testing.T, workers int, spec string) (string, []byte) {
	t.Helper()
	cfg := chaosCfg()
	rec := trace.New(cfg.Seed)
	dir := filepath.Join(t.TempDir(), "ds.seg")
	if _, err := generate(t, context.Background(), cfg, dir, workers, spec, rec); err != nil {
		t.Fatalf("seggen.Run(workers=%d): %v", workers, err)
	}
	var tr bytes.Buffer
	if err := rec.Flush(&tr); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("workers=%d: trace ring overwrote %d events", workers, rec.Dropped())
	}
	return dir, tr.Bytes()
}

// The edgesim trace — spans, batch fates, write retries, commits — is
// byte-identical at any -workers count, chaos (an outage included) or
// not, and tracing does not change one dataset byte.
func TestEdgesimTraceWorkerInvariant(t *testing.T) {
	for _, plan := range []string{"", chaosSpec} {
		name := "plain"
		if plan != "" {
			name = "chaos"
		}
		t.Run(name, func(t *testing.T) {
			wantDir, wantTrace := tracedDataset(t, 1, plan)
			if len(wantTrace) == 0 {
				t.Fatal("empty trace")
			}
			want := dirBytes(t, wantDir)
			for _, workers := range []int{2, 4} {
				dir, tr := tracedDataset(t, workers, plan)
				if !bytes.Equal(tr, wantTrace) {
					t.Errorf("workers=%d trace differs from workers=1", workers)
				}
				sameDir(t, dirBytes(t, dir), want, "traced")
			}
			untraced, _ := chaosDataset(t, 4, plan)
			sameDir(t, dirBytes(t, untraced), want, "untraced")
		})
	}
}

// A chaos edgesim trace must tell the coverage ledger's story exactly:
// per-track loss events partition into the same cause totals
// (`edgetrace causes` prints "reconciled").
func TestEdgesimTraceReconciles(t *testing.T) {
	_, raw := tracedDataset(t, 4, chaosSpec)
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
		t.Fatal("edgesim trace does not reconcile with its coverage ledger")
	}
	if rep.Sender == 0 {
		t.Error("outage losses missing from the trace")
	}
	if rep.Network == 0 {
		t.Error("batch/write losses missing from the trace")
	}
}
