package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
	for _, s := range world.New(cfg).GenerateAll() {
		col.Offer(s)
	}
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
// landed, at one worker (three goroutines, one stage behind the other)
// as at two.
func TestSegInterruptResumeByteIdentical(t *testing.T) {
	ref := filepath.Join(t.TempDir(), "ref.seg")
	if _, err := segDataset(t, context.Background(), ref, 2, ""); err != nil {
		t.Fatal(err)
	}
	want := dirBytes(t, ref)

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ds.seg")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Cancel as soon as a few segments have landed — mid-run, like
			// a SIGINT. The property under test is interrupt-point-agnostic.
			go func() {
				for ctx.Err() == nil {
					if ents, err := os.ReadDir(dir); err == nil && len(ents) >= 4 {
						cancel()
						return
					}
					time.Sleep(200 * time.Microsecond)
				}
			}()
			_, err := segDataset(t, ctx, dir, workers, "")
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

			// Resume with the same flags: only missing groups regenerate,
			// and the final directory matches the uninterrupted reference
			// exactly.
			res, err := segDataset(t, context.Background(), dir, workers, "")
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if partial > 0 && res.Resumed == 0 {
				t.Errorf("resume regenerated everything despite %d committed samples", partial)
			}
			sameDir(t, dirBytes(t, dir), want, "resumed")
		})
	}
}

// A permanent write fault under FailFast stops the work list at its
// group. The plan gives group 0 a streak of sixteen transient write
// faults (about 0.8 s of backoff on the writer) and group 1 a permanent
// one, drawn up front: the run simulates group 0 alone, commits it
// through the streak, and fails on group 1 at every worker count,
// however fast a later group would finish. The run must return the
// write fault, and the dataset must read back as exactly group 0,
// whole, with every pooled batch of the read released.
func TestSegFailFastWriteFaultStopsBlockedGenerator(t *testing.T) {
	cfg := world.Config{Seed: 5, Groups: 24, Days: 2, SessionsPerGroupWindow: 2}
	const spec = "seed=49;sink-transient=0.3;sink-permanent=0.3;sink-streak=16;retries=20;retry-base=50ms"
	plan, err := faults.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref := filepath.Join(t.TempDir(), "ref.seg")
	if _, err := generate(t, context.Background(), cfg, ref, 4, "", nil); err != nil {
		t.Fatal(err)
	}
	refMan := manifest(t, ref)
	refBytes := dirBytes(t, ref)
	cpg := seggen.ChunksPerGroup(cfg)
	var group0 []segstore.SegmentMeta
	for _, m := range refMan.Segments {
		if m.ID < cpg {
			group0 = append(group0, m)
		}
	}
	if len(group0) != cpg {
		t.Fatalf("reference holds %d segments of group 0, want %d", len(group0), cpg)
	}

	for _, workers := range []int{1, 4} {
		w := world.New(cfg)
		reg := obs.NewRegistry()
		w.Instrument(reg)
		dir := filepath.Join(t.TempDir(), "ds.seg")
		res, err := seggen.Run(context.Background(), seggen.Options{
			World: w, Dir: dir, Origin: "test " + spec, Reg: reg, Workers: workers,
			Injector: faults.NewInjector(plan, cfg.Seed), FailFast: true,
		})
		var fe *faults.FaultError
		if !errors.As(err, &fe) || fe.Surface != faults.SurfaceWrite || fe.Transient {
			t.Fatalf("workers=%d: Run returned %v, want the permanent write fault", workers, err)
		}
		// Group 0 alone: the work list ends before group 1.
		if n := reg.Counter("world_groups_total").Value(); n != 1 {
			t.Fatalf("workers=%d: %d groups simulated, want group 0 alone", workers, n)
		}

		man := manifest(t, dir)
		if len(man.Tombstones) != 0 || len(man.Segments) != len(group0) {
			t.Fatalf("workers=%d: manifest holds %d segments and %d tombstones, want group 0's %d segments",
				workers, len(man.Segments), len(man.Tombstones), len(group0))
		}
		got := dirBytes(t, dir)
		for i, m := range man.Segments {
			if !reflect.DeepEqual(m, group0[i]) || !bytes.Equal(got[m.File], refBytes[m.File]) {
				t.Fatalf("workers=%d: segment %+v is not the clean run's %+v", workers, m, group0[i])
			}
		}
		if res.Written != man.TotalSamples() {
			t.Fatalf("workers=%d: run reports %d samples written, manifest holds %d", workers, res.Written, man.TotalSamples())
		}

		r, err := segstore.Open(dir)
		if err != nil {
			t.Fatalf("workers=%d: failed dataset is not readable: %v", workers, err)
		}
		rows := 0
		err = r.ScanColumns(context.Background(), workers, nil, func(b *segstore.ColumnBatch) error {
			rows += b.Len()
			b.Release()
			return nil
		})
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil || rows != res.Written {
			t.Fatalf("workers=%d: read back %d rows (%v), want %d", workers, rows, err, res.Written)
		}
		if out, _ := segstore.LeakStats(); out != 0 {
			t.Fatalf("workers=%d: %d pooled batches outstanding after the read", workers, out)
		}
	}
}

// manifest reads a dataset's committed manifest.
func manifest(t *testing.T, dir string) *segstore.Manifest {
	t.Helper()
	r, err := segstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }() // read-only dataset; nothing to flush
	return r.Manifest()
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
