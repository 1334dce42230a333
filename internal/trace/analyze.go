package trace

import (
	"fmt"
	"sort"
)

// Canonical loss causes: every KLoss event's Detail is one of these,
// matching the faults.Coverage ledger partition field for field.
const (
	LossOutage      = "outage"      // sessions never generated (PoP down)
	LossTruncated   = "truncated"   // batch tails cut in flight
	LossDropped     = "dropped"     // batches dropped whole
	LossQuarantined = "quarantined" // groups withdrawn from aggregation
)

// Dapper-style cause buckets for degradation attribution.
const (
	CauseSender   = "sender"   // the sender never produced the data
	CauseNetwork  = "network"  // the data was lost or mangled in flight
	CauseReceiver = "receiver" // the receiving sink refused or withdrew it
)

// CauseOf maps a canonical loss cause to its attribution bucket: an
// outage means the sender (the PoP) never sent; truncation and drops
// happen to batches in flight; quarantines are the receiver
// withdrawing a group it could not ingest.
func CauseOf(loss string) string {
	switch loss {
	case LossOutage:
		return CauseSender
	case LossTruncated, LossDropped:
		return CauseNetwork
	case LossQuarantined:
		return CauseReceiver
	}
	return CauseNetwork
}

// Ledger-mark details: the run track carries one KMark per Coverage
// ledger counter (stage "coverage"), which is what Causes reconciles
// the per-group loss events against.
const (
	MarkLostPrefix    = "lost-" // MarkLostPrefix+<loss cause>
	MarkGroupsDropped = "groups-dropped"
	MarkBatchesTrunc  = "batches-truncated"
	MarkRetries       = "retries"
	MarkRecovered     = "recovered"
	// MarkDedup counts duplicate shipments the merge tier dropped
	// idempotently (internal/ship) — absorbed redundancy, not loss.
	MarkDedup     = "dedup-dropped"
	CoverageStage = "coverage"
)

// StageRow aggregates one pipeline stage's deterministic events.
type StageRow struct {
	Phase   uint8
	Stage   string
	Spans   int   // completed spans (KEnd count)
	Samples int64 // logical work: sum of KEnd values
	Events  int   // all events carrying this stage name
}

// Stages builds the per-stage attribution table: how much logical
// work (spans, samples) each stage accounted for, in phase order.
func Stages(f *File) []StageRow {
	type key struct {
		phase uint8
		stage string
	}
	idx := map[key]*StageRow{}
	var order []key
	for _, e := range f.Events {
		k := key{e.Phase, e.Stage}
		r, ok := idx[k]
		if !ok {
			r = &StageRow{Phase: e.Phase, Stage: e.Stage}
			idx[k] = r
			order = append(order, k)
		}
		r.Events++
		if e.Kind == KEnd {
			r.Spans++
			r.Samples += e.Value
		}
	}
	rows := make([]StageRow, 0, len(order))
	for _, k := range order {
		rows = append(rows, *idx[k])
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Phase != rows[j].Phase {
			return rows[i].Phase < rows[j].Phase
		}
		return rows[i].Stage < rows[j].Stage
	})
	return rows
}

// CritRow is one group's critical path: its heaviest window and that
// window's events across every phase, in pipeline order.
type CritRow struct {
	Track   string
	Win     int32
	Samples int64 // the window's logical weight (work + losses)
	Steps   []Event
}

// CriticalPaths extracts, for every group track, the slowest (heaviest)
// window — the one with the most logical work plus booked losses — and
// the phase-ordered event chain that window took through the pipeline.
// Rows sort by weight, heaviest first.
func CriticalPaths(f *File) []CritRow {
	type key struct {
		track string
		win   int32
	}
	weight := map[key]int64{}
	for _, e := range f.Events {
		if e.Track == TrackRun || e.Win < 0 {
			continue
		}
		if e.Kind == KEnd || e.Kind == KLoss || e.Kind == KMark {
			weight[key{e.Track, e.Win}] += e.Value
		}
	}
	best := map[string]key{}
	for k, w := range weight {
		b, ok := best[k.track]
		// Ties break toward the earlier window so the pick is stable.
		if !ok || w > weight[b] || (w == weight[b] && k.win < b.win) {
			best[k.track] = k
		}
	}
	rows := make([]CritRow, 0, len(best))
	for track, k := range best {
		r := CritRow{Track: track, Win: k.win, Samples: weight[k]}
		for _, e := range f.Events {
			if e.Track == track && e.Win == k.win {
				r.Steps = append(r.Steps, e)
			}
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Samples != rows[j].Samples {
			return rows[i].Samples > rows[j].Samples
		}
		return rows[i].Track < rows[j].Track
	})
	return rows
}

// GroupCause is one degraded group's loss attribution.
type GroupCause struct {
	Track    string
	Sender   int64
	Network  int64
	Receiver int64
	// Faults lists the distinct fault classes (KFault/KQuarantine
	// details) seen on the track, sorted.
	Faults []string
}

// Total sums the group's attributed loss.
func (g GroupCause) Total() int64 { return g.Sender + g.Network + g.Receiver }

// CauseCheck is one reconciliation row: trace-summed loss for a cause
// against the Coverage ledger's mark.
type CauseCheck struct {
	Loss   string
	Traced int64
	Ledger int64
}

// OK reports whether the cause reconciles exactly.
func (c CauseCheck) OK() bool { return c.Traced == c.Ledger }

// CauseReport is the Dapper-style degradation attribution for a run.
type CauseReport struct {
	Groups []GroupCause // degraded groups, largest loss first
	// Bucket totals across groups.
	Sender, Network, Receiver int64
	// Checks reconciles each loss cause against the ledger marks; nil
	// when the trace has no coverage marks (untraced or fault-free run).
	Checks []CauseCheck
	// Retries/Recovered echo the ledger's retry economy marks.
	Retries, Recovered int64
	// Dedup echoes the merge tier's idempotently-dropped duplicate
	// shipments (MarkDedup): redundancy absorbed with no loss.
	Dedup int64
}

// Reconciled reports whether every cause check passed (vacuously true
// with no checks).
func (r CauseReport) Reconciled() bool {
	for _, c := range r.Checks {
		if !c.OK() {
			return false
		}
	}
	return true
}

// Causes attributes every degraded group's loss to sender/network/
// receiver buckets and reconciles the totals against the Coverage
// ledger marks embedded in the trace.
func Causes(f *File) CauseReport {
	byTrack := map[string]*GroupCause{}
	var order []string
	faultSeen := map[string]map[string]bool{}
	traced := map[string]int64{}
	ledger := map[string]int64{}
	haveLedger := false
	var rep CauseReport
	for _, e := range f.Events {
		switch e.Kind {
		case KLoss:
			g, ok := byTrack[e.Track]
			if !ok {
				g = &GroupCause{Track: e.Track}
				byTrack[e.Track] = g
				order = append(order, e.Track)
			}
			traced[e.Detail] += e.Value
			switch CauseOf(e.Detail) {
			case CauseSender:
				g.Sender += e.Value
			case CauseReceiver:
				g.Receiver += e.Value
			default:
				g.Network += e.Value
			}
		case KFault, KQuarantine:
			if faultSeen[e.Track] == nil {
				faultSeen[e.Track] = map[string]bool{}
			}
			faultSeen[e.Track][e.Detail] = true
		case KMark:
			if e.Track == TrackRun && e.Stage == CoverageStage {
				haveLedger = true
				switch e.Detail {
				case MarkRetries:
					rep.Retries = e.Value
				case MarkRecovered:
					rep.Recovered = e.Value
				case MarkDedup:
					rep.Dedup = e.Value
				case MarkGroupsDropped, MarkBatchesTrunc:
					// Structural counters; not sample-loss reconciled.
				default:
					if len(e.Detail) > len(MarkLostPrefix) && e.Detail[:len(MarkLostPrefix)] == MarkLostPrefix {
						ledger[e.Detail[len(MarkLostPrefix):]] = e.Value
					}
				}
			}
		}
	}
	for _, t := range order {
		g := byTrack[t]
		for d := range faultSeen[t] {
			g.Faults = append(g.Faults, d)
		}
		sort.Strings(g.Faults)
		rep.Sender += g.Sender
		rep.Network += g.Network
		rep.Receiver += g.Receiver
		rep.Groups = append(rep.Groups, *g)
	}
	sort.Slice(rep.Groups, func(i, j int) bool {
		if ti, tj := rep.Groups[i].Total(), rep.Groups[j].Total(); ti != tj {
			return ti > tj
		}
		return rep.Groups[i].Track < rep.Groups[j].Track
	})
	if haveLedger {
		for _, c := range []string{LossOutage, LossTruncated, LossDropped, LossQuarantined} {
			rep.Checks = append(rep.Checks, CauseCheck{Loss: c, Traced: traced[c], Ledger: ledger[c]})
		}
	}
	return rep
}

// DiffRow compares one stage between two runs.
type DiffRow struct {
	Phase    uint8
	Stage    string
	ASpans   int
	BSpans   int
	ASamples int64
	BSamples int64
}

// Same reports whether the stage matches between runs.
func (d DiffRow) Same() bool { return d.ASpans == d.BSpans && d.ASamples == d.BSamples }

// Diff compares two runs stage by stage: spans completed and logical
// samples processed per stage. Rows cover the union of stages, phase
// order; identical stages are included (callers filter).
func Diff(a, b *File) []DiffRow {
	idx := map[string]*DiffRow{}
	var order []string
	add := func(rows []StageRow, second bool) {
		for _, r := range rows {
			k := fmt.Sprintf("%d/%s", r.Phase, r.Stage)
			d, ok := idx[k]
			if !ok {
				d = &DiffRow{Phase: r.Phase, Stage: r.Stage}
				idx[k] = d
				order = append(order, k)
			}
			if second {
				d.BSpans, d.BSamples = r.Spans, r.Samples
			} else {
				d.ASpans, d.ASamples = r.Spans, r.Samples
			}
		}
	}
	add(Stages(a), false)
	add(Stages(b), true)
	out := make([]DiffRow, 0, len(order))
	for _, k := range order {
		out = append(out, *idx[k])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}
