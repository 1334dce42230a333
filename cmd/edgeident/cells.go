package main

import (
	"slices"
	"strings"
)

// The fault plans the cells run under.
const (
	// chaos fires every fault surface the ledger absorbs: sink retries,
	// quarantine, batch truncation and drop, a PoP outage.
	chaos = "seed=7;sink-transient=0.01;sink-permanent=0.001;truncate=0.1;corrupt=0.03;fail-group=2;outage=fra:10-30;retries=4;retry-base=50us"
	// hot is hot enough to tombstone whole groups (3 groups, 8083 samples
	// of the sim world).
	hot = "seed=13;sink-transient=0.15;sink-permanent=0.08;truncate=0.2;corrupt=0.08;fail-group=3;outage=fra:10-30;retries=4;retry-base=20us"
	// wirePlan duplicates and severs shipments between PoPs and merger.
	wirePlan = "seed=9;ship-dup=0.4;ship-drop=0.2;retries=12;retry-base=1ms"
)

// The worlds the cells simulate. The fleet's has nine groups: with
// eight, both groups' shares hash to one PoP and the other ships nothing.
var (
	simWorld    = []string{"-seed", "3", "-groups", "8", "-days", "2", "-spw", "12"}
	popWorld    = []string{"-seed", "3", "-groups", "9", "-days", "2", "-spw", "12"}
	studydWorld = []string{"-seed", "7", "-groups", "8", "-days", "2", "-spw", "10"}
)

// filterCountries selects 3 of the sim world's 8 groups (5022 samples
// of the second day). US and BR, the filter hand-typed matrices used,
// select none of them: an empty report equals any other.
const filterCountries = "PE,IN,GB"

// studydCountries are the two filters the daemon is asked for at once:
// JP is 3312 of the daemon world's 14269 samples, GB and KE 3340.
var studydCountries = []string{"JP", "GB,KE"}

// cells is the table. A cell names the cells it must equal in like, so
// every comparison below is one row of output; cells without like are
// checked only for their exit status, their files and their wall-clock
// line (and, with -parent, against their twin).
func cells() []cell {
	var t []cell

	// The dataset write at workers 4, 2 and 1, clean and under two plans,
	// with and without a trace: same directory, stderr and trace bytes.
	for _, p := range []struct{ name, plan string }{{"", ""}, {"-chaos", chaos}, {"-hot", hot}} {
		for _, tr := range []string{"", "-trace"} {
			ref := "sim" + p.name + tr + "-w4"
			for _, w := range []string{"4", "2", "1"} {
				c := cell{name: "sim" + p.name + tr + "-w" + w, prog: "edgesim",
					args: slices.Concat(simWorld, []string{"-workers", w, "-o", "out"})}
				if p.plan != "" {
					c.args = append(c.args, "-fault-plan", p.plan)
				}
				if tr != "" {
					c.args = append(c.args, "-trace", "trace")
				}
				if w != "4" {
					c.like = []string{ref}
				}
				t = append(t, c)
			}
		}
	}

	// Replays of the clean dataset: workers 4 and 1 and the row oracle
	// render the same report (and trace), with no filter, a time filter
	// pushed down to the manifest, a time and country filter, the raw
	// CDFs, and a sink plan traced.
	for _, v := range []struct {
		name  string
		flags []string
	}{
		{"", nil},
		{"-from", []string{"-from", "24h"}},
		{"-filter", []string{"-from", "24h", "-country", filterCountries}},
		{"-cdf", []string{"-cdf"}},
		{"-chaos-trace", []string{"-fault-plan", chaos, "-trace", "trace"}},
	} {
		ref := "report" + v.name + "-w4"
		t = append(t,
			cell{name: ref, prog: "edgereport", in: "sim-w4",
				args: slices.Concat([]string{"-in", "IN/out", "-workers", "4"}, v.flags)},
			cell{name: "report" + v.name + "-w1", prog: "edgereport", in: "sim-w4", like: []string{ref},
				args: slices.Concat([]string{"-in", "IN/out", "-workers", "1"}, v.flags)},
			cell{name: "report" + v.name + "-oracle", prog: "edgereport", in: "sim-w4", like: []string{ref},
				args: slices.Concat([]string{"-in", "IN/out", "-row-oracle", "-workers", "1"}, v.flags)})
	}

	t = append(t,
		// Both directions of the one JSONL door: the re-imported copy
		// renders the batch report.
		cell{name: "segcat-export", prog: "segcat", in: "sim-w4", args: []string{"-in", "IN/out", "-o", "out"}},
		cell{name: "segcat-import", prog: "segcat", in: "segcat-export", args: []string{"-in", "IN/out", "-o", "out"}},
		cell{name: "report-reimport", prog: "edgereport", in: "segcat-import", like: []string{"report-w4"},
			args: []string{"-in", "IN/out", "-workers", "1"}},
		cell{name: "stat", prog: "edgestat", in: "sim-w4", args: []string{"-in", "IN/out"}},
		cell{name: "stat-filter", prog: "edgestat", in: "sim-w4", args: []string{"-in", "IN/out", "-from", "24h", "-country", filterCountries}},

		// A generated world's traced chaos study, workers 4 and 1, whose
		// ledger the trace must reconcile.
		cell{name: "world-chaos-w4", prog: "edgereport",
			args: []string{"-groups", "8", "-days", "1", "-spw", "12", "-workers", "4", "-trace", "trace", "-fault-plan", chaos}},
		cell{name: "world-chaos-w1", prog: "edgereport", like: []string{"world-chaos-w4"},
			args: []string{"-groups", "8", "-days", "1", "-spw", "12", "-workers", "1", "-trace", "trace", "-fault-plan", chaos}},
		cell{name: "world-chaos-causes", prog: "edgetrace", in: "world-chaos-w4", args: []string{"causes", "IN/trace"}},
		// Worlds dense enough (45 sessions a window) that windows reach
		// the 30-session floor, so §5 and §6 compare something: the CDFs
		// and their interval bands, and the deaggregation experiment.
		cell{name: "world-cdf-w4", prog: "edgereport", args: []string{"-seed", "5", "-groups", "8", "-days", "1", "-spw", "45", "-workers", "4", "-cdf"}},
		cell{name: "world-cdf-w1", prog: "edgereport", like: []string{"world-cdf-w4"},
			args: []string{"-seed", "5", "-groups", "8", "-days", "1", "-spw", "45", "-workers", "1", "-cdf"}},
		cell{name: "world-deagg-w4", prog: "edgereport", args: []string{"-seed", "6", "-groups", "8", "-days", "1", "-spw", "45", "-workers", "4", "-deagg"}},
		cell{name: "world-deagg-w1", prog: "edgereport", like: []string{"world-deagg-w4"},
			args: []string{"-seed", "6", "-groups", "8", "-days", "1", "-spw", "45", "-workers", "1", "-deagg"}},

		// Two PoPs ship disjoint shares of the world through a dup/drop
		// wire to a merger, acking each slot, and to a daemon in wire
		// mode, acks group-committed: the spools (less the shippers' ack
		// log) and the reports are the single process's.
		cell{name: "pop-golden", prog: "edgesim", args: slices.Concat(popWorld, []string{"-workers", "4", "-o", "out"})},
		cell{name: "pop-golden-report", prog: "edgereport", in: "pop-golden", args: []string{"-in", "IN/out", "-workers", "4"}},
		cell{name: "pop-fleet", prog: fleet, like: []string{"pop-golden:out"},
			args: slices.Concat(popWorld, []string{"-workers", "4", "-ship-fault-plan", wirePlan})},
		cell{name: "pop-fleet-report", prog: "edgereport", in: "pop-fleet", like: []string{"pop-golden-report"},
			args: []string{"-in", "IN/out", "-workers", "4"}},
		cell{name: "pop-wire", prog: wire, like: []string{"pop-golden:out", "pop-golden-report:stdout"},
			args: slices.Concat(popWorld, []string{"-workers", "4", "-ship-fault-plan", wirePlan, "-ack-batch", "8"})},
	)

	// The always-on daemon drains into the batch dataset's spool and
	// serves its report, at workers 1, 2 and 4, clean and under both
	// plans: on the daemon's world each truncates groups, drops one and
	// loses windows to the outage. No write fault fires there; the
	// daemon's own tests run plans that fire it.
	for _, p := range []struct{ name, plan string }{{"", ""}, {"-chaos", chaos}, {"-hot", hot}} {
		golden := "studyd" + p.name + "-golden"
		var plan []string
		if p.plan != "" {
			plan = []string{"-fault-plan", p.plan}
		}
		t = append(t,
			cell{name: golden, prog: "edgesim", args: slices.Concat(studydWorld, []string{"-workers", "4", "-o", "out"}, plan)},
			cell{name: golden + "-report", prog: "edgereport", in: golden, args: []string{"-in", "IN/out", "-workers", "4"}})
		for _, w := range []string{"1", "2", "4"} {
			t = append(t, cell{name: "studyd" + p.name + "-w" + w, prog: daemon,
				like: []string{golden + ":out", golden + "-report:stdout"},
				args: slices.Concat(studydWorld, []string{"-workers", w}, plan)})
		}
	}

	// Two distinct filtered reports asked of the drained daemon at once:
	// one folds while the other waits its turn, both answer 200, and each
	// equals the batch report under the same filter.
	filtered := cell{name: "studyd-filtered-w2", prog: daemon,
		like: []string{"studyd-golden:out", "studyd-golden-report:stdout"},
		args: slices.Concat(studydWorld, []string{"-workers", "2"})}
	for _, countries := range studydCountries {
		ref := "studyd-golden-report-" + strings.ReplaceAll(countries, ",", "-")
		t = append(t, cell{name: ref, prog: "edgereport", in: "studyd-golden",
			args: []string{"-in", "IN/out", "-workers", "4", "-country", countries}})
		filtered.queries = append(filtered.queries, "country="+countries)
		filtered.like = append(filtered.like, ref+":stdout=report?country="+countries)
	}
	return append(t, filtered)
}
