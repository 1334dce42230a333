package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric the benchmark prints. The tables below
// are the single list of names: BENCHMARK.json repeats them (the smoke
// test holds the two together), -compare reads bounds and exactness
// from here, and a run that fails to produce one of them is an error.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	exact  bool    // a count that repeats bit for bit for one seed at workers 1
}

// endToEnd are measured with the span recorder off. Every workload
// reports every one of them: each moves samples and has a stored
// dataset (so bytes per sample). A bound is twice the widest ten-run
// spread seen on any driven workload (README.md has the figures),
// capped at the contract's 25 %.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "samples_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_p75_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "stored_bytes_per_sample", unit: "B", better: "lower", bound: 0.05},
}

// perLayer come from the traced run: span self times divided by the
// counts recorded at the same boundary, plus a few isolated probes.
var perLayer = []metricDef{
	{name: "world.generate_ns_per_sample", unit: "ns", better: "lower"},
	{name: "world.live_feed_ns_per_sample", unit: "ns", better: "lower"},

	{name: "seggen.run_ns_per_sample", unit: "ns", better: "lower"},
	{name: "seggen.self_share", unit: "ratio", better: "lower"},
	{name: "seggen.sharded_speedup", unit: "ratio", better: "higher"},

	{name: "collector.offer_columns_ns_per_sample", unit: "ns", better: "lower"},
	{name: "collector.filtered_share", unit: "ratio", better: "lower", exact: true},

	{name: "segstore.encode_ns_per_sample", unit: "ns", better: "lower"},
	{name: "segstore.encode_allocs_per_sample", unit: "count", better: "lower"},
	{name: "segstore.bytes_per_sample", unit: "B", better: "lower", exact: true},
	{name: "segstore.commit_ms_p50", unit: "ms", better: "lower"},
	{name: "segstore.commits", unit: "count", better: "lower", exact: true},
	{name: "segstore.decode_ns_per_sample", unit: "ns", better: "lower"},
	{name: "segstore.scan_ns_per_sample", unit: "ns", better: "lower"},
	{name: "segstore.scan_allocs_per_sample", unit: "count", better: "lower"},
	{name: "segstore.scan_sharded_speedup", unit: "ratio", better: "higher"},

	{name: "agg.add_batch_ns_per_sample", unit: "ns", better: "lower"},
	{name: "agg.add_batch_allocs_per_sample", unit: "count", better: "lower"},
	{name: "agg.seal_ms", unit: "ms", better: "lower"},
	{name: "agg.merge_ms", unit: "ms", better: "lower"},

	{name: "analysis.overview_ns_per_sample", unit: "ns", better: "lower"},
	{name: "analysis.overview_allocs_per_sample", unit: "count", better: "lower"},
	{name: "analysis.degradation_ms", unit: "ms", better: "lower"},
	{name: "analysis.opportunity_ms", unit: "ms", better: "lower"},
	{name: "analysis.classify_ms", unit: "ms", better: "lower"},
	{name: "analysis.relationships_ms", unit: "ms", better: "lower"},

	{name: "tdigest.add_ns", unit: "ns", better: "lower"},
	{name: "tdigest.quantile_ns", unit: "ns", better: "lower"},
	{name: "tdigest.merge_us", unit: "us", better: "lower"},

	{name: "study.from_segments_ms", unit: "ms", better: "lower"},
	{name: "study.render_ms", unit: "ms", better: "lower"},
	{name: "study.report_bytes", unit: "B", better: "lower", exact: true},
	{name: "study.allocs_per_sample", unit: "count", better: "lower"},
	{name: "study.alloc_bytes_per_sample", unit: "B", better: "lower"},
	{name: "study.sharded_speedup", unit: "ratio", better: "higher"},
	{name: "study.unattributed_share", unit: "ratio", better: "lower"},
	{name: "study.obs_overhead_share", unit: "ratio", better: "lower"},
	{name: "study.trace_overhead_share", unit: "ratio", better: "lower"},

	{name: "ship.slots_per_s", unit: "1/s", better: "higher"},
	{name: "ship.slot_ms_p50", unit: "ms", better: "lower"},
	{name: "ship.bytes_per_slot", unit: "B", better: "lower", exact: true},
	{name: "ship.frame_ns_per_slot", unit: "ns", better: "lower"},
	{name: "ship.retries", unit: "count", better: "lower", exact: true},
	{name: "ship.reconnects", unit: "count", better: "lower", exact: true},
	{name: "ship.merger_dedup", unit: "count", better: "lower", exact: true},
	{name: "ship.ack_batch8_speedup", unit: "ratio", better: "higher"},

	{name: "studyd.ingest_ns_per_sample", unit: "ns", better: "lower"},
	{name: "studyd.seal_commit_ms_p50", unit: "ms", better: "lower"},
	{name: "studyd.seal_noop_ns", unit: "ns", better: "lower"},
	{name: "studyd.cold_ms_p50", unit: "ms", better: "lower"},
	{name: "studyd.hit_ns_p50", unit: "ns", better: "lower"},
	{name: "studyd.hit_allocs", unit: "count", better: "lower"},
	{name: "studyd.stale_ns_p50", unit: "ns", better: "lower"},
	{name: "studyd.revalidate_us_per_ksample", unit: "us", better: "lower"},
	{name: "studyd.cache_hits", unit: "count", better: "higher", exact: true},
	{name: "studyd.cache_stales", unit: "count", better: "higher", exact: true},
	{name: "studyd.cache_misses", unit: "count", better: "lower", exact: true},
	{name: "studyd.groups_ms", unit: "ms", better: "lower"},
	{name: "studyd.windows_us", unit: "us", better: "lower"},

	// Demoted from end to end: only a daemon has them, and the driver's
	// contract wants every end-to-end metric from every workload. The
	// day-to-fresh time they make up is op_p50_ms on live_serve.
	{name: "studyd.seal_to_fresh_p50_ms", unit: "ms", better: "lower"},
	{name: "studyd.seal_to_fresh_p75_ms", unit: "ms", better: "lower"},
	{name: "studyd.report_hit_p50_us", unit: "us", better: "lower"},
	{name: "studyd.report_hit_p99_us", unit: "us", better: "lower"},
	{name: "studyd.report_stale_p50_us", unit: "us", better: "lower"},
	{name: "studyd.report_stale_p75_us", unit: "us", better: "lower"},

	{name: "process.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "bench.trace_overhead_share", unit: "ratio", better: "lower"},
}

// values is what a run measured, by metric name.
type values map[string]float64

// set records a metric once; a second value for the same name is a
// bug in the benchmark, not something to average away.
func (v values) set(name string, x float64) {
	if _, dup := v[name]; dup {
		panic("bench: metric " + name + " set twice")
	}
	v[name] = x
}

// complete checks v holds exactly the metrics of defs, all finite.
func (v values) complete(defs []metricDef) error {
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("metric %s is %v", d.name, x)
		}
	}
	if len(v) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d defined", len(v), len(defs))
	}
	return nil
}

// quantile is the linear-interpolation quantile of xs (not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// opQuantile estimates the q-th quantile of operation times as the
// mean of the order statistics within an eighth of the sample of it.
// A sample quantile rests on one or two operations; live_serve's
// operations ramp with the day, so there those one or two are always
// the same days and their noise is never averaged. Averaging the
// neighbouring ranks estimates the same quantile from a quarter of the
// operations (for n < 8 it is the plain quantile).
func opQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos, half := q*float64(len(s)-1), float64(len(s))/8
	lo, hi := int(math.Ceil(pos-half)), int(math.Floor(pos+half))
	lo, hi = max(lo, 0), min(hi, len(s)-1)
	if lo > hi {
		return quantile(s, q)
	}
	return sum(s[lo:hi+1]) / float64(hi-lo+1)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
