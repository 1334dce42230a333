package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run sets its workload up from nothing;
// setup_s is the median, so one slow directory sync does not decide it.
const setupReps = 3

// conditions are the conditions of test, stated with every result: a
// speed quoted without them cannot be compared with anything.
type conditions struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	WorldSeed  uint64  `json:"world_seed"` // derived from seed so the world has the workload's size
	Source     string  `json:"source"`     // "untraced" (end-to-end figures) or "traced" (per-layer figures)
	Shape      string  `json:"corpus_shape"`
	RawSamples int     `json:"samples_generated"`
	Samples    int     `json:"samples_stored"`
	Slots      int     `json:"segments"`
	Workers    int     `json:"workers"`         // inside the system under test, on the timed path
	LoadProcs  int     `json:"load_goroutines"` // the benchmark's own concurrency cap
	Step       string  `json:"step"`
	Ops        int     `json:"ops_timed"`
	Seconds    float64 `json:"seconds_timed"`
	SetupReps  int     `json:"setup_reps"`
	WarmOpS    float64 `json:"warm_op_s"` // the untimed warm-up op, counted inside setup_s
	// Wall is the untraced run as the clock read it, before times were
	// brought to the reference speed.
	Wall        *wallClock `json:"wall_clock,omitempty"`
	FlushPolicy string     `json:"flush_policy"`
	NumCPU      int        `json:"nproc"`
	GOMAXPROCS  int        `json:"gomaxprocs"`
	GoVersion   string     `json:"go_version"`
}

// wallClock keeps what calibration removes, so nothing is hidden: the
// same medians in plain wall time, and how fast the machine ran.
type wallClock struct {
	SetupS        float64 `json:"setup_s"`
	OpP50Ms       float64 `json:"op_p50_ms"`
	OpP75Ms       float64 `json:"op_p75_ms"`
	OpsS          float64 `json:"ops_s"`
	Slowdown      float64 `json:"slowdown_median"` // kernel time over nominal, median of the readings
	SpeedReadings int     `json:"speed_readings"`
	SpeedReadingS float64 `json:"speed_reading_s"` // time spent reading the speed, outside every op
}

// measured is one metric as printed.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run. Its last four fields are the line the driver
// reads; -out keeps the whole of it.
type result struct {
	Conditions conditions          `json:"conditions"`
	Correct    bool                `json:"correct"`
	Attempted  int                 `json:"attempted"`
	Failed     int                 `json:"failed"`
	Metrics    map[string]measured `json:"metrics"`
}

func baseConditions(w *workload, seed uint64, source string, c *corpus) conditions {
	return conditions{
		Workload: w.name, Seed: seed, WorldSeed: c.cfg.Seed, Source: source, Shape: w.shape(),
		RawSamples: c.raw, Samples: c.stored, Slots: c.slots,
		Workers: 1, LoadProcs: nproc, Step: w.opsPerStep, FlushPolicy: flushPolicy,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
}

// finish turns measured values into a result, refusing a run that did
// not measure exactly the metrics it is defined to.
func finish(cond conditions, defs []metricDef, v values, attempted, failed int) (*result, error) {
	if err := v.complete(defs); err != nil {
		return nil, err
	}
	res := &result{Conditions: cond, Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]measured{}}
	for _, d := range defs {
		res.Metrics[d.name] = measured{Value: v[d.name], Unit: d.unit}
	}
	return res, nil
}

// runUntraced measures a workload's end-to-end metrics with the span
// recorder off: set-up (repeated), one untimed warm-up op so the page
// cache and the pools are full, then steps until the time is used.
// cal may be nil (times as the clock reads them).
func runUntraced(w *workload, seed uint64, seconds float64, workdir string, cal *calibrator) (*result, error) {
	cfg := w.config(seed)
	var fx *fixture
	var err error
	var setups, setupsWall []float64
	for i := 0; i < setupReps && err == nil; i++ {
		wall, slow := cal.around(func() { fx, err = w.setUp(cfg, filepath.Join(workdir, "fixture")) })
		setups, setupsWall = append(setups, wall/slow/1e9), append(setupsWall, wall/1e9)
	}
	if err != nil {
		return nil, err
	}
	warmWall, slow := cal.around(func() {
		if w.warm != nil {
			err = w.warm(fx)
		} else {
			err = w.step(fx, nil).err
		}
	})
	if err != nil {
		return nil, fmt.Errorf("%s warm-up op failed its check: %w", w.name, err)
	}
	warm := warmWall / slow / 1e9
	var total step
	start := time.Now()
	for {
		t0 := time.Now()
		s := w.step(fx, cal)
		last := time.Since(t0)
		if s.err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: failed operation: %v\n", w.name, s.err)
		}
		total.add(s)
		// Stop at the whole number of steps nearest the time asked for.
		if time.Since(start)+last/2 >= time.Duration(seconds*float64(time.Second)) {
			break
		}
	}
	attempted := len(total.opNs) + total.failed
	if len(total.opNs) == 0 {
		return &result{Attempted: attempted, Failed: total.failed},
			fmt.Errorf("%s: all %d operations failed, so there is no time to report: %w", w.name, attempted, total.err)
	}

	busy := sum(total.opNs) / 1e9
	v := values{}
	v.set("setup_s", median(setups)+warm)
	v.set("samples_per_s", float64(total.samples)/busy)
	v.set("op_p50_ms", opQuantile(total.opNs, 0.5)/1e6)
	v.set("op_p75_ms", opQuantile(total.opNs, 0.75)/1e6)
	v.set("stored_bytes_per_sample", float64(fx.c.bytes)/float64(fx.c.stored))

	cond := baseConditions(w, seed, "untraced", fx.c)
	cond.Ops, cond.Seconds, cond.SetupReps, cond.WarmOpS = len(total.opNs), busy, setupReps, warm
	cond.Wall = &wallClock{
		SetupS: median(setupsWall) + warmWall/1e9, OpP50Ms: opQuantile(total.wallNs, 0.5) / 1e6,
		OpP75Ms: opQuantile(total.wallNs, 0.75) / 1e6, OpsS: sum(total.wallNs) / 1e9,
	}
	if cal != nil {
		cond.Wall.Slowdown, cond.Wall.SpeedReadings, cond.Wall.SpeedReadingS = median(cal.read), len(cal.read), cal.spent.Seconds()
	}
	return finish(cond, endToEnd, v, attempted, total.failed)
}

// print writes the run for people (conditions, then one line per
// metric: name, value, unit, which run it came from) and, last, the
// one line the driver reads.
func (r *result) print(w io.Writer, defs []metricDef) error {
	cond, err := json.Marshal(r.Conditions)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "conditions %s\n", cond)
	for _, d := range defs {
		m := r.Metrics[d.name]
		fmt.Fprintf(w, "metric %s %s %s %s\n", d.name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit, r.Conditions.Source)
	}
	fmt.Fprintf(w, "operations attempted %d failed %d\n", r.Attempted, r.Failed)
	line, err := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]measured `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// appendTo adds the run to a file of results, one JSON document a
// line — what -compare reads.
func (r *result) appendTo(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
