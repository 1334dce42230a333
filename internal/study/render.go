package study

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"repro/internal/analysis"
	"repro/internal/bgp"
	"repro/internal/geo"
	"repro/internal/report"
	"repro/internal/sample"
)

// WriteReport renders every reproduced table and figure as text. It
// seals the overview first — nothing to do for the Results of a run,
// which come sealed; Results assembled by hand from a folded Overview
// need not know — and likewise computes Figure 10 for Results that come
// without it.
func (r *Results) WriteReport(w io.Writer) {
	r.Overview.Seal()
	fmt.Fprintf(w, "Dataset: %d groups × %d days (%d windows), %d samples (%d filtered as hosting/VPN)\n",
		r.Cfg.Groups, r.Cfg.Days, r.Cfg.Windows(), r.Collector.Accepted, r.Collector.FilteredHosting)
	fmt.Fprintf(w, elapsedPrefix+"%v\n\n", r.Elapsed.Round(1e7))

	r.writeCoverage(w)
	r.writeTrafficCharacterisation(w)
	r.writePoPs(w)
	r.writeFig6(w)
	r.writeFig7(w)
	r.writeSimpleAblation(w)
	r.writeFig8(w)
	r.writeTable1(w)
	r.writeFig9(w)
	r.writeTable2(w)
	r.writeFig10(w)
}

// elapsedPrefix opens the report's wall-clock line, the only bytes of a
// report that are not a function of the data.
const elapsedPrefix = "Generated and analysed in "

// StripElapsed returns report without its wall-clock lines and how many
// it removed: one, for any report WriteReport wrote. What is left is a
// pure function of the data, comparable byte for byte across runs.
func StripElapsed(report []byte) ([]byte, int) {
	body := make([]byte, 0, len(report))
	n := 0
	for _, line := range bytes.SplitAfter(report, []byte("\n")) {
		if bytes.HasPrefix(line, []byte(elapsedPrefix)) {
			n++
			continue
		}
		body = append(body, line...)
	}
	return body, n
}

// writeCoverage renders the degradation ledger of a chaos run. Plans
// are opt-in, so reports without one are byte-identical to pre-fault
// builds: the section only exists when Coverage does.
func (r *Results) writeCoverage(w io.Writer) {
	c := r.Coverage
	if c == nil {
		return
	}
	fmt.Fprintln(w, "== Coverage under faults (degradation ledger) ==")
	fmt.Fprintf(w, "fault plan: %s (fail-fast=%v)\n", c.Spec, c.FailFast)
	if !c.Degraded() {
		fmt.Fprintf(w, "run NOT degraded: all injected faults absorbed (%d retries spent, %d transient faults recovered)\n\n",
			c.RetriesSpent, c.TransientRecovered)
		return
	}
	denom := r.Collector.Accepted + c.SamplesLost()
	fmt.Fprintf(w, "run DEGRADED: %d samples lost (%s of the %d the run would have aggregated)\n",
		c.SamplesLost(), report.Pct(float64(c.SamplesLost())/float64(max(1, denom))), denom)
	report.Table(w, []string{"cause", "samples lost", "units"}, [][]string{
		{"pop outage", fmt.Sprintf("%d", c.SamplesLostOutage), "sessions never collected"},
		{"batch truncated", fmt.Sprintf("%d", c.SamplesLostTruncated), fmt.Sprintf("%d batches", c.BatchesTruncated)},
		{"batch dropped", fmt.Sprintf("%d", c.SamplesLostDropped), fmt.Sprintf("%d groups", c.GroupsDropped)},
		{"quarantined", fmt.Sprintf("%d", c.SamplesLostQuarantined), fmt.Sprintf("%d groups", len(c.Quarantined))},
	})
	fmt.Fprintf(w, "recovery: %d retries spent, %d transient faults recovered\n", c.RetriesSpent, c.TransientRecovered)
	if len(c.Quarantined) > 0 {
		var rows [][]string
		for _, q := range c.Quarantined {
			rows = append(rows, []string{q.Key, q.Reason, fmt.Sprintf("%d", q.SamplesLost)})
		}
		report.Table(w, []string{"quarantined group", "reason", "samples lost"}, rows)
	}
	fmt.Fprintln(w)
}

func (r *Results) writeTrafficCharacterisation(w io.Writer) {
	o := r.Overview
	fmt.Fprintln(w, "== §2.3 Traffic characteristics (Figures 1-3) ==")
	rows := [][]string{}
	for _, proto := range []sample.Protocol{"all", sample.HTTP1, sample.HTTP2} {
		d := o.SessionDuration[proto]
		b := o.BusyFraction[proto]
		tx := o.TxnsPerSession[proto]
		rows = append(rows, []string{
			string(proto),
			report.Pct(d.CDF(1)),
			report.Pct(d.CDF(60)),
			report.Pct(1 - d.CDF(180)),
			report.Pct(b.CDF(0.10)),
			report.Pct(tx.CDF(4.5)),
		})
	}
	report.Table(w, []string{"proto", "dur<1s", "dur<1min", "dur>3min", "busy<10%", "txns<5"}, rows)
	fmt.Fprintf(w, "Fig2: sessions<10KB=%s responses<6KB=%s media-median=%sB sessions>1MB=%s\n",
		report.Pct(o.SessionBytes.CDF(10_000)),
		report.Pct(o.ResponseBytes.CDF(6_000)),
		report.F(o.MediaRespBytes.Quantile(0.5)),
		report.Pct(1-o.SessionBytes.CDF(1_000_000)))
	fmt.Fprintf(w, "Fig3: bytes on 50+txn sessions=%s\n",
		report.Pct(float64(o.BytesOver50Txns)/float64(o.TotalBytes)))
	fmt.Fprintf(w, "§2.1 locality: traffic within 500km=%s within 2500km=%s cross-continent=%s (paper: 50%%, 90%%, 10%%)\n\n",
		report.Pct(o.ServingDistance.CDF(500)),
		report.Pct(o.ServingDistance.CDF(2500)),
		report.Pct(float64(o.CrossContinentBytes)/float64(o.TotalBytes)))
}

func (r *Results) writePoPs(w io.Writer) {
	o := r.Overview
	fmt.Fprintln(w, "== §2.1 Serving infrastructure (per-PoP traffic) ==")
	names := make([]string, 0, len(o.PerPoP))
	for name := range o.PerPoP {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if bi, bj := o.PerPoP[names[i]].Bytes, o.PerPoP[names[j]].Bytes; bi != bj {
			return bi > bj
		}
		return names[i] < names[j]
	})
	var rows [][]string
	for _, name := range names {
		pp := o.PerPoP[name]
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d", pp.Sessions),
			report.Pct(float64(pp.Bytes) / float64(o.TotalBytes)),
			report.F(pp.MinRTT.Quantile(0.5)) + "ms",
		})
	}
	report.Table(w, []string{"pop", "sessions", "traffic", "minrtt-p50"}, rows)
	fmt.Fprintln(w)
}

func (r *Results) writeFig6(w io.Writer) {
	o := r.Overview
	fmt.Fprintln(w, "== §4 Global performance (Figure 6) ==")
	fmt.Fprintf(w, "MinRTT: %s\n", report.QuantileRow(o.MinRTT))
	fmt.Fprintf(w, "HDratio: >0 for %s of sessions, =1 for %s\n",
		report.Pct(o.HDPositiveShare()), report.Pct(o.HDFullShare()))
	rows := [][]string{}
	for _, cont := range geo.Continents {
		co := o.PerContinent[cont]
		if co == nil || co.HDDefined == 0 {
			continue
		}
		rows = append(rows, []string{
			string(cont),
			report.F(co.MinRTT.Quantile(0.5)) + "ms",
			report.Pct(float64(co.HDZero) / float64(co.HDDefined)),
			report.Pct(float64(co.HDOne) / float64(co.HDDefined)),
		})
	}
	report.Table(w, []string{"continent", "MinRTT p50", "HDratio=0", "HDratio=1"}, rows)
	fmt.Fprintln(w)
}

func (r *Results) writeFig7(w io.Writer) {
	fmt.Fprintln(w, "== Figure 7: HDratio by MinRTT bucket ==")
	rows := [][]string{}
	for i, b := range analysis.RTTBuckets {
		d := r.Overview.HDByRTTBucket[i]
		if d.Count() == 0 {
			continue
		}
		rows = append(rows, []string{
			b.Name + "ms",
			fmt.Sprintf("%.0f", d.Count()),
			report.F(d.Quantile(0.25)),
			report.F(d.Quantile(0.5)),
			report.Pct(float64(r.Overview.HDZeroByRTTBucket[i]) / d.Count()),
		})
	}
	report.Table(w, []string{"MinRTT", "sessions", "HD p25", "HD p50", "HDratio=0"}, rows)
	fmt.Fprintln(w)
}

func (r *Results) writeSimpleAblation(w io.Writer) {
	fmt.Fprintf(w, "== §4 ablation: naive goodput baseline ==\n")
	fmt.Fprintf(w, "corrected HDratio: median=%s mean=%s | naive: median=%s mean=%s (paper: naive underestimates, median 0.69)\n\n",
		report.F(r.Overview.HD.Quantile(0.5)), report.F(r.Overview.HD.Mean()),
		report.F(r.Overview.SimpleApproachMedian()), report.F(r.Overview.SimpleHD.Mean()))
}

func (r *Results) writeFig8(w io.Writer) {
	fmt.Fprintln(w, "== §5 Degradation (Figure 8) ==")
	for _, dr := range []analysis.DegradationResult{r.DegMinRTT, r.DegHD} {
		cdf, _, _ := dr.CDF()
		cov := float64(dr.CoveredBytes) / float64(dr.TotalBytes)
		// The figure's anchor: traffic degraded by at least 4 ms, or 0.065.
		anchor := 4.0
		if dr.Metric == analysis.MetricHDratio {
			anchor = 0.065
		}
		fmt.Fprintf(w, "%s: coverage=%s p50=%s p90=%s p99=%s  traffic with ≥4ms|0.065 degradation: %s\n",
			dr.Metric, report.Pct(cov),
			report.F(cdf.Quantile(0.5)), report.F(cdf.Quantile(0.9)), report.F(cdf.Quantile(0.99)),
			report.Pct(cdf.FractionAbove(anchor)))
	}
	fmt.Fprintln(w)
}

func (r *Results) writeTable1(w io.Writer) {
	fmt.Fprintln(w, "== Table 1: temporal classes × continent ==")
	write := func(name string, tbl analysis.ClassTable) {
		fmt.Fprintf(w, "-- %s, thresholds %v --\n", name, tbl.Thresholds)
		headers := []string{"class/continent"}
		for _, th := range tbl.Thresholds {
			headers = append(headers, fmt.Sprintf("@%v", th))
		}
		row := func(label string, cells []analysis.ClassRow) []string {
			r := []string{label}
			for ti := range tbl.Thresholds {
				r = append(r, report.Frac(cells[ti].GroupTrafficShare)+" "+report.Frac(cells[ti].EventTrafficShare))
			}
			return r
		}
		var rows [][]string
		for _, class := range analysis.Classes {
			rows = append(rows, row(class.String(), tbl.Overall[class]))
			for _, cont := range geo.Continents {
				rows = append(rows, row("  "+string(cont), tbl.Rows[class][cont]))
			}
		}
		report.Table(w, headers, rows)
		fmt.Fprintln(w)
	}
	write("Degradation MinRTTP50 (ms)", r.Table1DegMinRTT)
	write("Degradation HDratioP50", r.Table1DegHD)
	write("Opportunity MinRTTP50 (ms)", r.Table1OppMinRTT)
	write("Opportunity HDratioP50", r.Table1OppHD)
}

func (r *Results) writeFig9(w io.Writer) {
	fmt.Fprintln(w, "== §6.2 Opportunity (Figure 9) ==")
	fmt.Fprintf(w, "MinRTTP50: within 3ms of optimal for %s of traffic; improvable ≥5ms for %s (paper: 83.9%%, 2.0%%)\n",
		report.Pct(r.OppMinRTT.FractionWithinOfOptimal(3)),
		report.Pct(r.OppMinRTT.FractionImprovableAtLeast(5)))
	fmt.Fprintf(w, "HDratioP50: within 0.025 of optimal for %s; improvable ≥0.05 for %s (paper: 93.4%%, 0.2%%)\n",
		report.Pct(r.OppHD.FractionWithinOfOptimal(0.025)),
		report.Pct(r.OppHD.FractionImprovableAtLeast(0.05)))
	covM := float64(r.OppMinRTT.CoveredBytes) / float64(r.OppMinRTT.TotalBytes)
	covH := float64(r.OppHD.CoveredBytes) / float64(r.OppHD.TotalBytes)
	fmt.Fprintf(w, "valid-aggregation coverage: MinRTT %s, HDratio %s (paper: 89.5%%, 85.8%%)\n\n",
		report.Pct(covM), report.Pct(covH))
}

func (r *Results) writeTable2(w io.Writer) {
	fmt.Fprintln(w, "== Table 2: opportunity by relationship pair ==")
	write := func(name string, tbl analysis.RelationshipTable) {
		fmt.Fprintf(w, "-- %s --\n", name)
		type row struct {
			pair RelPairName
			ro   analysis.RelOpportunity
		}
		var rows []row
		for pair, ro := range tbl.Pairs {
			rows = append(rows, row{RelPairName{pair.Pref, pair.Alt}, *ro})
		}
		sort.Slice(rows, func(i, j int) bool {
			if bi, bj := rows[i].ro.EventBytes, rows[j].ro.EventBytes; bi != bj {
				return bi > bj
			}
			return rows[i].pair.String() < rows[j].pair.String()
		})
		var cells [][]string
		for _, rr := range rows {
			abs, rel, longer, prep := "n/a", "n/a", "n/a", "n/a"
			if tbl.TotalBytes > 0 {
				abs = report.Frac(float64(rr.ro.EventBytes) / float64(tbl.TotalBytes))
			}
			if tbl.TotalEventBytes > 0 {
				rel = report.Frac(float64(rr.ro.EventBytes) / float64(tbl.TotalEventBytes))
			}
			if rr.ro.EventBytes > 0 {
				longer = report.Frac(float64(rr.ro.LongerBytes) / float64(rr.ro.EventBytes))
				prep = report.Frac(float64(rr.ro.PrependedBytes) / float64(rr.ro.EventBytes))
			}
			cells = append(cells, []string{rr.pair.String(), abs, rel, longer, prep})
		}
		report.Table(w, []string{"relationships", "absolute", "relative", "longer", "prepended"}, cells)
		fmt.Fprintln(w)
	}
	write("MinRTTP50 (≥5ms)", r.Table2MinRTT)
	write("HDratioP50 (≥0.05)", r.Table2HD)
}

// RelPairName renders a relationship pair as the paper's rows do.
type RelPairName struct{ Pref, Alt bgp.RelType }

// String renders "Private → Transit".
func (p RelPairName) String() string { return p.Pref.String() + " -> " + p.Alt.String() }

func (r *Results) writeFig10(w io.Writer) {
	fmt.Fprintln(w, "== §6.3 Peer vs transit (Figure 10) ==")
	cdfs := r.Fig10.CDFs
	if cdfs == nil {
		cdfs = analysis.CompareRelationships(r.Store, analysis.MetricMinRTT)
	}
	var rows [][]string
	for _, c := range analysis.RelComparisons {
		cdf, ok := cdfs[c]
		if !ok || cdf.Total() == 0 {
			continue
		}
		rows = append(rows, []string{
			c.String(),
			report.F(cdf.Quantile(0.1)),
			report.F(cdf.Quantile(0.5)),
			report.F(cdf.Quantile(0.9)),
			report.Pct(cdf.FractionAtOrBelow(0)),
		})
	}
	report.Table(w, []string{"comparison", "p10", "p50", "p90", "pref better"}, rows)
	fmt.Fprintln(w)
}
