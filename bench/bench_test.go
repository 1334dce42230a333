package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// toy returns a copy of the named workload over a corpus small enough
// for a smoke test; everything but the shape is the real thing.
func toy(t *testing.T, name string) *workload {
	t.Helper()
	w := *workloadNamed(name)
	w.weight = 0
	switch name {
	case "batch_replay":
		w.groups, w.days, w.spw = 3, 2, 3 // two days: the second commit is the one stale read
	case "generate_write":
		w.groups, w.days, w.spw = 2, 2, 3
	case "fleet_ship":
		w.groups, w.days, w.spw = 5, 2, 2
	case "live_serve":
		w.groups, w.days, w.spw = 2, 3, 2
	default:
		t.Fatalf("no workload %q", name)
	}
	return &w
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkPrinted holds what a run printed to the contract: every metric
// of defs exactly once, by name, with a unit, and the driver's line
// last with exactly its four keys.
func checkPrinted(t *testing.T, out string, defs []metricDef) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	seen := map[string]int{}
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "metric" {
			continue
		}
		if len(f) != 5 || f[3] == "" {
			t.Errorf("metric line %q: want name, value, unit and source", line)
			continue
		}
		if !metricName.MatchString(f[1]) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", f[1])
		}
		seen[f[1]]++
	}
	for _, d := range defs {
		if seen[d.name] != 1 {
			t.Errorf("metric %s printed %d times, want once", d.name, seen[d.name])
		}
	}
	if len(seen) != len(defs) {
		t.Errorf("%d distinct metrics printed, %d defined", len(seen), len(defs))
	}

	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(last) != 4 {
		t.Errorf("last line has %d keys, want correct, attempted, failed, metrics", len(last))
	}
	var metrics map[string]measured
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, d := range defs {
		if m, ok := metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("driver line: metric %s = %+v, want unit %s", d.name, m, d.unit)
		}
	}
}

func TestWorkloadsUntracedAndTraced(t *testing.T) {
	for _, base := range workloads {
		t.Run(base.name, func(t *testing.T) {
			w := toy(t, base.name)

			res, err := runUntraced(w, 7, 0.05, t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if res.Conditions.Source != "untraced" || res.Conditions.Samples == 0 || res.Conditions.Seed != 7 {
				t.Errorf("conditions of test not recorded: %+v", res.Conditions)
			}
			var out bytes.Buffer
			if err := res.print(&out, endToEnd); err != nil {
				t.Fatal(err)
			}
			checkPrinted(t, out.String(), endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never 0", d.name, res.Metrics[d.name].Value)
				}
			}

			// The traced run fails unless every operation taken apart gave
			// the bytes of the whole one: reports, datasets and spools.
			spans := filepath.Join(t.TempDir(), "spans.json")
			res, err = runTraced(w, 7, t.TempDir(), spans)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Conditions.Source != "traced" {
				t.Errorf("traced: correct=%v failed=%d source=%s", res.Correct, res.Failed, res.Conditions.Source)
			}
			out.Reset()
			if err := res.print(&out, perLayer); err != nil {
				t.Fatal(err)
			}
			checkPrinted(t, out.String(), perLayer)
			if _, ok := res.Metrics["bench.trace_overhead_share"]; !ok {
				t.Error("no tracing overhead for the traced workload")
			}

			data, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				Spans []spanRec `json:"spans"`
			}
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatalf("span file does not parse: %v", err)
			}
			if len(file.Spans) == 0 {
				t.Fatal("span file is empty")
			}
			if err := checkSpans(file.Spans); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// A wrong output must cost the operation, not pass as a time.
func TestCorruptionIsAFailedOperation(t *testing.T) {
	w := toy(t, "batch_replay")
	fx, err := w.setUp(w.config(7), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if s := w.step(fx, nil); s.failed != 0 || len(s.opNs) != 1 {
		t.Fatalf("clean fixture: %+v", s)
	}

	good := fx.report
	fx.report = append([]byte(nil), good...)
	fx.report[len(fx.report)/2] ^= 1
	if s := w.step(fx, nil); s.failed != 1 || len(s.opNs) != 0 || s.err == nil {
		t.Errorf("corrupt reference report: step = %+v, want one failed operation and no time", s)
	}
	fx.report = good

	man, err := readManifest(fx.c.dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(fx.c.dir, man.Segments[0].File)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if err := os.WriteFile(seg, data, 0o666); err != nil {
		t.Fatal(err)
	}
	if s := w.step(fx, nil); s.failed != 1 || len(s.opNs) != 0 || s.err == nil {
		t.Errorf("corrupt segment: step = %+v, want one failed operation and no time", s)
	}

	// A whole run over a workload that cannot pass its check reports
	// the failure and no metrics.
	bad := *w
	bad.build = func(fx *fixture) error {
		err := w.build(fx)
		fx.report = append(fx.report, '!')
		return err
	}
	if res, err := runUntraced(&bad, 7, 0.05, t.TempDir(), nil); err == nil {
		t.Errorf("run with a wrong reference printed metrics: %+v", res)
	}
}

// BENCHMARK.json repeats the names, units, directions and bounds of
// the metric tables; this holds the two together.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	var driven []*workload
	for _, w := range workloads {
		if w.undriven == "" {
			driven = append(driven, w)
		}
	}
	if len(file.Workloads) != len(driven) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d driven ones in the table", len(file.Workloads), len(driven))
	}
	for i, w := range driven {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why == "" || len(file.Workloads[i].Why) > 200 {
			t.Errorf("workload %d: %+v, want %s with a why of at most 200 characters", i, file.Workloads[i], w.name)
		}
	}
	same := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the table", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: %+v, want %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s: bound %v, table says %v", d.name, g.Bound, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
			if len(d.name) > 64 || !metricName.MatchString(d.name) || len(d.unit) > 16 {
				t.Errorf("%s (%s): name or unit outside the contract's limits", d.name, d.unit)
			}
		}
	}
	same("end-to-end", file.EndToEnd, endToEnd, true)
	same("per-layer", file.PerLayer, perLayer, false)
	if file.EndToEnd[0].Name != "setup_s" {
		t.Error("setup_s must be an end-to-end metric")
	}
}

func TestOpQuantile(t *testing.T) {
	ramp := make([]float64, 32)
	for i := range ramp {
		ramp[31-i] = float64(i)
	}
	// Ranks 15.5 +- 4 of 0..31: the mean of 12..19.
	if got := opQuantile(ramp, 0.5); got != 15.5 {
		t.Errorf("opQuantile(ramp, 0.5) = %v, want 15.5", got)
	}
	if got := opQuantile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("opQuantile of three = %v, want the median 2", got)
	}
	if got := opQuantile([]float64{5}, 0.75); got != 5 {
		t.Errorf("opQuantile of one = %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{16, 1, 8, 2, 4}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
	// statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
	if q1, q3 := quartiles([]float64{10, 20, 30}); q1 != 10 || q3 != 30 {
		t.Errorf("quartiles = %v, %v; want 10, 30", q1, q3)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{name: "op_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "samples_per_s", better: "higher", bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, []float64{100, 101, 102}, []float64{103, 104, 105}, "ok"},
		{lower, []float64{100, 101, 102}, []float64{113, 114, 115}, "worse"},
		{higher, []float64{100, 101, 102}, []float64{85, 86, 87}, "worse"},
		{higher, []float64{100, 101, 102}, []float64{113, 114, 115}, "ok"},
		{lower, []float64{80, 100, 120}, []float64{85, 101, 118}, "unresolved"},
		{lower, []float64{80, 100, 120}, []float64{50, 60, 70}, "ok"}, // noisy, but every run better
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s a=%v b=%v: %s, want %s", c.d.name, c.a, c.b, got, c.want)
		}
	}
}
