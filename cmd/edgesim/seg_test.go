package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/seggen"
	"repro/internal/segstore"
	"repro/internal/trace"
	"repro/internal/world"
)

func segCfg() world.Config {
	// Days=2 so every group spans two segment chunks and the ID scheme
	// (group*ChunksPerGroup + chunk) is actually exercised.
	return world.Config{Seed: 5, Groups: 24, Days: 2, SessionsPerGroupWindow: 4}
}

// generate runs the writer main drives — seggen.Run over the whole
// world — wired the way main wires it: the plan's injector also decides
// the PoP outages, the recorder (nil = untraced) also sees generation.
func generate(t *testing.T, ctx context.Context, cfg world.Config, dir string, workers int, spec string, rec *trace.Recorder) (seggen.Result, error) {
	t.Helper()
	plan, err := faults.ParsePlan(spec)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", spec, err)
	}
	w := world.New(cfg)
	inj := faults.NewInjector(plan, cfg.Seed)
	if inj != nil {
		w.PoPDown = inj.Outage
	}
	w.Rec = rec
	return seggen.Run(ctx, seggen.Options{
		World: w, Dir: dir, Origin: "test " + spec, Reg: obs.NewRegistry(),
		Workers: workers, Injector: inj, Rec: rec,
	})
}

func segDataset(t *testing.T, ctx context.Context, dir string, workers int, spec string) (seggen.Result, error) {
	t.Helper()
	return generate(t, ctx, segCfg(), dir, workers, spec, nil)
}

// dirBytes snapshots every file in a dataset directory.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

func sameDir(t *testing.T, got, want map[string][]byte, label string) {
	t.Helper()
	for name, data := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: missing file %s", label, name)
			continue
		}
		if !bytes.Equal(g, data) {
			t.Errorf("%s: file %s differs (%d vs %d bytes)", label, name, len(g), len(data))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: unexpected file %s", label, name)
		}
	}
}

// The seg dataset must not depend on the worker count — with or
// without a fault plan (tombstones included).
func TestSegDatasetByteIdenticalAcrossWorkers(t *testing.T) {
	for _, spec := range []string{"", "seed=13;sink-transient=0.15;sink-permanent=0.08;truncate=0.2;corrupt=0.08;retries=4;retry-base=20us"} {
		base := filepath.Join(t.TempDir(), "base.seg")
		baseRes, err := segDataset(t, context.Background(), base, 1, spec)
		if err != nil {
			t.Fatalf("workers=1 plan=%q: %v", spec, err)
		}
		if baseCov := baseRes.Coverage; spec != "" && (baseCov == nil || !baseCov.Degraded()) {
			t.Fatalf("plan %q did not degrade the run", spec)
		}
		want := dirBytes(t, base)
		for _, workers := range []int{2, 4} {
			dir := filepath.Join(t.TempDir(), "w.seg")
			if _, err := segDataset(t, context.Background(), dir, workers, spec); err != nil {
				t.Fatalf("workers=%d plan=%q: %v", workers, spec, err)
			}
			sameDir(t, dirBytes(t, dir), want, spec)
		}
	}
}

// Exporting the dataset as JSONL must give exactly the generated rows
// the collector's hosting filter keeps, in (group, window) order, as
// sample.Writer renders them — the stream an external tool sees through
// `segcat -in ds -o -`.
func TestSegDatasetRoundTripsToJSONLDataset(t *testing.T) {
	cfg := segCfg()
	var jsonl bytes.Buffer
	col := collector.New(sample.NewWriter(&jsonl).Write)
	world.New(cfg).Generate(col.Offer)
	if err := col.Err(); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "ds.seg")
	if _, err := segDataset(t, context.Background(), dir, 4, ""); err != nil {
		t.Fatal(err)
	}
	r, err := segstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	var back bytes.Buffer
	if _, err := segstore.WriteJSONL(context.Background(), r, &back, 4, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), jsonl.Bytes()) {
		t.Fatalf("seg→jsonl (%d bytes) differs from the generated rows as jsonl (%d bytes)", back.Len(), jsonl.Len())
	}
	if man := r.Manifest(); int64(jsonl.Len()) < 3*man.TotalBytes() {
		t.Logf("note: compression ratio %.2fx (jsonl %d bytes, seg %d bytes)", float64(jsonl.Len())/float64(man.TotalBytes()), jsonl.Len(), man.TotalBytes())
	}
}

// An interrupt mid-run must leave a readable manifest, and rerunning
// with the same flags must resume and converge on a directory
// byte-identical to an uninterrupted run's — wherever the interrupt
// landed.
func TestSegInterruptResumeByteIdentical(t *testing.T) {
	ref := filepath.Join(t.TempDir(), "ref.seg")
	if _, err := segDataset(t, context.Background(), ref, 2, ""); err != nil {
		t.Fatal(err)
	}
	want := dirBytes(t, ref)

	dir := filepath.Join(t.TempDir(), "ds.seg")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel as soon as a few segments have landed — mid-run, like a
	// SIGINT. The property under test is interrupt-point-agnostic.
	go func() {
		for {
			if ents, err := os.ReadDir(dir); err == nil && len(ents) >= 4 {
				cancel()
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	_, err := segDataset(t, ctx, dir, 2, "")
	if err == nil {
		t.Skip("run finished before the cancel landed; nothing interrupted")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run failed with %v, want context.Canceled", err)
	}

	// The manifest must be readable right now, mid-dataset.
	r, err := segstore.Open(dir)
	if err != nil {
		t.Fatalf("interrupted dataset is not readable: %v", err)
	}
	partial := r.Manifest().TotalSamples()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume with the same flags: only missing groups regenerate, and
	// the final directory matches the uninterrupted reference exactly.
	res, err := segDataset(t, context.Background(), dir, 2, "")
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if partial > 0 && res.Resumed == 0 {
		t.Errorf("resume regenerated everything despite %d committed samples", partial)
	}
	sameDir(t, dirBytes(t, dir), want, "resumed")
}

// Resuming with different flags must be refused, not interleaved.
func TestSegResumeRefusesDifferentOrigin(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds.seg")
	if _, err := segDataset(t, context.Background(), dir, 1, ""); err != nil {
		t.Fatal(err)
	}
	_, err := seggen.Run(context.Background(), seggen.Options{World: world.New(segCfg()), Dir: dir, Origin: "test seed=999", Workers: 1})
	if err == nil {
		t.Fatal("seggen.Run extended a dataset written under a different origin")
	}
}
