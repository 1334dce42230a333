package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/seggen"
	"repro/internal/segstore"
	"repro/internal/world"
)

// writeDataset writes a small generated dataset and returns its
// directory and manifest.
func writeDataset(t *testing.T) (string, *segstore.Manifest) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ds.seg")
	w := world.New(world.Config{Seed: 5, Groups: 6, Days: 1, SessionsPerGroupWindow: 4})
	if _, err := seggen.Run(context.Background(), seggen.Options{World: w, Dir: dir, Origin: "test", Workers: 1}); err != nil {
		t.Fatal(err)
	}
	man, err := segstore.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) < 3 || man.TotalSamples() == 0 {
		t.Fatalf("fixture has %d segments and %d samples, want at least 3 and some", len(man.Segments), man.TotalSamples())
	}
	return dir, man
}

// checkNoLeak fails t when the pooled batches outstanding moved from
// before.
func checkNoLeak(t *testing.T, what string, before int64) {
	t.Helper()
	if out, _ := segstore.LeakStats(); out != before {
		t.Errorf("%s: outstanding batches = %d, want %d", what, out, before)
	}
}

// The roll-up counts every sample the manifest commits, prints one row
// per group, and gives back every batch its scan handed it.
func TestRollUpNamesManifestTotal(t *testing.T) {
	dir, man := writeDataset(t)
	before, _ := segstore.LeakStats()
	var out bytes.Buffer
	if err := run(dir, nil, 0, &out); err != nil {
		t.Fatal(err)
	}
	checkNoLeak(t, "roll-up", before)
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if want := fmt.Sprintf("6 groups, %d samples, ", man.TotalSamples()); !strings.HasPrefix(lines[0], want) {
		t.Errorf("header %q, want it to start %q", lines[0], want)
	}
	// Header, blank line, table header, rule, one row per group.
	if got := len(lines) - 4; got != 6 {
		t.Errorf("%d group rows, want 6:\n%s", got, &out)
	}
}

// failWriter fails every write.
type failWriter struct{}

var errSink = errors.New("sink full")

func (failWriter) Write([]byte) (int, error) { return 0, errSink }

// A roll-up whose output fails, or whose dataset has rotted, returns an
// error and leaks nothing.
func TestRollUpErrorsLeakNothing(t *testing.T) {
	dir, man := writeDataset(t)
	before, _ := segstore.LeakStats()
	if err := run(dir, nil, 0, failWriter{}); !errors.Is(err, errSink) {
		t.Errorf("failing sink: error %v, want %v", err, errSink)
	}
	checkNoLeak(t, "failing sink", before)

	// Rot a segment after the first, so the scan has released batches
	// before it fails.
	path := filepath.Join(dir, man.Segments[2].File)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xff
	if err := os.WriteFile(path, blob, 0o666); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(dir, nil, 0, &out); !errors.Is(err, segstore.ErrCorrupt) {
		t.Errorf("rotted segment: error %v, want ErrCorrupt", err)
	}
	if out.Len() != 0 {
		t.Errorf("rotted segment: wrote %q, want nothing", &out)
	}
	checkNoLeak(t, "rotted segment", before)
}
