package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/seggen"
	"repro/internal/segstore"
	"repro/internal/study"
	"repro/internal/world"
)

// nproc caps the benchmark's own concurrency: load is generated from
// this one process with at most nproc goroutines or connections.
const nproc = 2

// corpus is one generated dataset at rest plus the figures every
// workload needs about it.
type corpus struct {
	cfg    world.Config
	origin string
	dir    string // the single-process dataset seggen.Run writes
	raw    int    // samples the world generated (before the hosting filter)
	stored int    // samples committed
	bytes  int64  // segment bytes committed
	slots  int    // segments committed
}

func worldConfig(seed uint64, groups, days int, spw float64) world.Config {
	return world.Config{Seed: seed, Groups: groups, Days: days, SessionsPerGroupWindow: spw}
}

// originOf is the dataset identity cmd/edgesim would stamp for cfg.
func originOf(cfg world.Config) string {
	return fmt.Sprintf("edgesim seed=%d groups=%d days=%d spw=%g plan=%q",
		cfg.Seed, cfg.Groups, cfg.Days, cfg.SessionsPerGroupWindow, "")
}

// writeDataset runs seggen over the groups given (nil = all) into dir.
func writeDataset(cfg world.Config, dir string, workers int, groups []int) (seggen.Result, error) {
	return seggen.Run(context.Background(), seggen.Options{
		World: world.New(cfg), Dir: dir, Origin: originOf(cfg), Workers: workers, Groups: groups,
	})
}

// buildCorpus writes cfg's dataset into dir and reads its shape back
// from the committed manifest.
func buildCorpus(cfg world.Config, dir string, workers int) (*corpus, error) {
	res, err := writeDataset(cfg, dir, workers, nil)
	if err != nil {
		return nil, fmt.Errorf("writing corpus: %w", err)
	}
	c := &corpus{cfg: cfg, origin: originOf(cfg), dir: dir, raw: res.Stats.Received}
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	c.stored, c.bytes, c.slots = man.TotalSamples(), man.TotalBytes(), len(man.Segments)
	if c.stored == 0 || c.stored != res.Written {
		return nil, fmt.Errorf("corpus %s: manifest holds %d samples, generator wrote %d", dir, c.stored, res.Written)
	}
	return c, nil
}

func readManifest(dir string) (*segstore.Manifest, error) {
	r, err := segstore.Open(dir)
	if err != nil {
		return nil, err
	}
	man := r.Manifest()
	if err := r.Close(); err != nil {
		return nil, err
	}
	return man, nil
}

// reportOf runs the undecomposed study over dir and renders it with
// the wall-clock line zeroed, so two reports over the same samples are
// the same bytes.
func reportOf(dir string, opt study.Options) ([]byte, *study.Results, error) {
	res, err := study.FromSegments(context.Background(), dir, opt)
	if err != nil {
		return nil, nil, err
	}
	return render(res), res, nil
}

func render(res *study.Results) []byte {
	res.Elapsed = 0
	var buf bytes.Buffer
	res.WriteReport(&buf)
	return buf.Bytes()
}

// stripElapsed drops the report's wall-clock line, as the daemon does
// before it serves a report.
func stripElapsed(b []byte) []byte {
	const marker = "Generated and analysed"
	i := bytes.Index(b, []byte(marker))
	if i < 0 || (i > 0 && b[i-1] != '\n') {
		return b
	}
	j := bytes.IndexByte(b[i:], '\n')
	if j < 0 {
		return b[:i]
	}
	return append(append([]byte(nil), b[:i]...), b[i+j+1:]...)
}

// sameDataset reports the first difference between two dataset
// directories, byte for byte. The shipper's ack log is local state of
// a PoP, not part of the dataset, so it is skipped.
func sameDataset(got, want string) error {
	list := func(dir string) ([]string, error) {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var names []string
		for _, e := range ents {
			if e.Name() != segstore.AcksName {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		return names, nil
	}
	g, err := list(got)
	if err != nil {
		return err
	}
	w, err := list(want)
	if err != nil {
		return err
	}
	if fmt.Sprint(g) != fmt.Sprint(w) {
		return fmt.Errorf("%s holds %d files, %s holds %d (or names differ)", got, len(g), want, len(w))
	}
	for _, name := range w {
		a, err := os.ReadFile(filepath.Join(got, name))
		if err != nil {
			return err
		}
		b, err := os.ReadFile(filepath.Join(want, name))
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("%s differs from %s", filepath.Join(got, name), filepath.Join(want, name))
		}
	}
	return nil
}
