package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/study"
	"repro/internal/world"
)

// flushPolicy is held fixed across every run and stated with every
// result: it decides how many fsyncs a slot costs.
const flushPolicy = "shipper: ack per slot, ack log committed per ack (AckBatch 1); merger, seggen and studyd: one manifest commit per segment / group / chunk"

// fixture is what a workload's set-up leaves behind: the dataset at
// rest and the references its outputs are checked against.
type fixture struct {
	dir    string // the workload's private work directory
	c      *corpus
	report []byte       // batch report of c, wall-clock line zeroed
	pops   [pops]string // fleet_ship: each PoP's share of c
}

// step is one unit of timed work: an operation or, for live_serve, a
// round of them. opNs holds the operations that passed their check, at
// the reference speed (see calibrate.go), and wallNs the same as the
// clock read them; a failed operation has no latency.
type step struct {
	opNs    []float64
	wallNs  []float64
	samples int
	failed  int
	err     error // the first failure, for the log
}

func oneOp(wallNs, slow float64, samples int, err error) step {
	if err != nil {
		return step{failed: 1, err: err}
	}
	return step{opNs: []float64{wallNs / slow}, wallNs: []float64{wallNs}, samples: samples}
}

func (s *step) add(o step) {
	s.opNs = append(s.opNs, o.opNs...)
	s.wallNs = append(s.wallNs, o.wallNs...)
	s.samples += o.samples
	s.failed += o.failed
	if s.err == nil {
		s.err = o.err
	}
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// The corpus shape is fixed; only the seed varies.
	groups, days int
	spw          float64
	// weight is the total traffic weight of the world's groups, which
	// fixes the expected sample count. Group weights are Zipf draws, so
	// worlds of one shape differ in size by a factor of two or more from
	// seed to seed; a benchmark whose op time doubles with the seed can
	// hold no bound. config therefore searches world seeds derived from
	// -seed for the first whose weight is within weightTolerance.
	weight float64
	// corpusWorkers is the parallelism the reference dataset is
	// written at. generate_write writes it at 2 so that its reference
	// comes from the sharded path and its timed ops from the sequential
	// one.
	corpusWorkers int
	// build adds what the workload needs beyond the dataset.
	build func(fx *fixture) error
	// step runs one unit of timed work, checked against the fixture.
	// cal may be nil.
	step func(fx *fixture, cal *calibrator) step
	// warm, when set, replaces step for the one untimed warm-up.
	warm func(fx *fixture) error
	// opsPerStep says what one step is, for the conditions of test.
	opsPerStep string
	// undriven, when set, is why BENCHMARK.json does not list the
	// workload: the driver holds every workload it runs to the bounds.
	undriven string
}

const weightTolerance = 0.005

// config derives the workload's world from the run's seed: the same
// seed always gives the same world, and every seed gives a world of
// the workload's shape and (within weightTolerance) size.
func (w *workload) config(seed uint64) world.Config {
	if w.weight == 0 { // the smoke test's toy shapes take the world as it comes
		return worldConfig(seed, w.groups, w.days, w.spw)
	}
	for j := uint64(0); ; j++ {
		cfg := worldConfig(seed*0x9E3779B97F4A7C15+j, w.groups, w.days, w.spw)
		total := 0.0
		for _, g := range world.New(cfg).Groups {
			total += g.Weight
		}
		if math.Abs(total/w.weight-1) <= weightTolerance {
			return cfg
		}
	}
}

func (w *workload) shape() string {
	return fmt.Sprintf("%d groups x %d days x spw %g", w.groups, w.days, w.spw)
}

var workloads = []*workload{
	{
		name: "batch_replay", groups: 25, days: 2, spw: 40, weight: 44.2, corpusWorkers: 1,
		opsPerStep: "1 op: study.FromSegments(workers 1) + WriteReport",
		build: func(fx *fixture) (err error) {
			fx.report, err = oracleReport(fx.c.dir)
			return err
		},
		step: func(fx *fixture, cal *calibrator) step {
			var rep []byte
			var err error
			ns, slow := cal.around(func() { rep, err = batchOp(fx.c.dir) })
			if err == nil {
				err = checkReport(rep, fx.report)
			}
			return oneOp(ns, slow, fx.c.stored, err)
		},
	},
	{
		name: "generate_write", groups: 12, days: 2, spw: 40, weight: 24.2, corpusWorkers: nproc,
		opsPerStep: "1 op: seggen.Run(workers 1) into a fresh directory",
		build:      func(*fixture) error { return nil },
		step: func(fx *fixture, cal *calibrator) step {
			out := filepath.Join(fx.dir, "out")
			var raw int
			var err error
			ns, slow := cal.around(func() { raw, err = generateOp(fx.c.cfg, out) })
			if err == nil {
				err = sameDataset(out, fx.c.dir)
			}
			if rerr := os.RemoveAll(out); err == nil {
				err = rerr
			}
			return oneOp(ns, slow, raw, err)
		},
	},
	{
		name: "fleet_ship", groups: 48, days: 5, spw: 8, weight: 80.2, corpusWorkers: 1,
		opsPerStep: "1 op: fresh ship.Merger on a unix socket + 2 concurrent ship.Ship",
		undriven:   "its op time wanders 370 to 760 ms over minutes on one seed and one commit, with neither CPU speed nor fsync latency (correlation 0.2 each): ~3 ms a slot of cross-thread wake-ups and small fsyncs is the hypervisor's to decide",
		build: func(fx *fixture) (err error) {
			fx.pops, err = buildPops(fx.c.cfg, fx.dir)
			return err
		},
		step: func(fx *fixture, cal *calibrator) step {
			spool, sock := filepath.Join(fx.dir, "spool"), filepath.Join(fx.dir, "m.sock")
			var run fleetRun
			var err error
			ns, slow := cal.around(func() { run, err = fleetOp(nil, 0, fx.pops, spool, sock, 1) })
			if err == nil {
				err = checkFleet(run, spool, fx.c)
			}
			if rerr := resetFleet(fx.pops, spool); err == nil {
				err = rerr
			}
			return oneOp(ns, slow, fx.c.stored, err)
		},
	},
	{
		name: "live_serve", groups: 8, days: 30, spw: 4, weight: 18.0, corpusWorkers: 1,
		opsPerStep: "1 round of a live studyd.Daemon: 1 op per day (ingest, chunk commit, report fresh again), then 200 cached reads",
		build: func(fx *fixture) error {
			rep, _, err := reportOf(fx.c.dir, study.Options{Workers: 1})
			fx.report = rep
			return err
		},
		step: func(fx *fixture, cal *calibrator) step {
			r, err := liveStep(nil, cal, 0, fx, 0)
			return step{opNs: r.opNs, wallNs: r.wallNs, samples: r.samples, failed: r.failed, err: err}
		},
		warm: func(fx *fixture) error {
			_, err := liveStep(nil, nil, 0, fx, 2)
			return err
		},
	},
}

// liveStep runs one round into a spool it removes afterwards.
func liveStep(rec *recorder, cal *calibrator, op int, fx *fixture, maxDays int) (liveRound, error) {
	spool := filepath.Join(fx.dir, "live-spool")
	r, _ := liveServe(rec, cal, op, fx.c, stripElapsed(fx.report), spool, maxDays)
	if rerr := os.RemoveAll(spool); r.err == nil {
		r.err = rerr
	}
	return r, r.err
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// setUp builds w's fixture for cfg from nothing in dir.
func (w *workload) setUp(cfg world.Config, dir string) (*fixture, error) {
	fx, err := buildFixture(cfg, dir, w.corpusWorkers, w.build)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return fx, nil
}

// buildFixture writes cfg's dataset under dir (emptied first) at the
// given parallelism, then lets build add the references.
func buildFixture(cfg world.Config, dir string, workers int, build func(*fixture) error) (*fixture, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	fx := &fixture{dir: dir}
	var err error
	if fx.c, err = buildCorpus(cfg, filepath.Join(dir, "dataset"), workers); err != nil {
		return nil, err
	}
	return fx, build(fx)
}
