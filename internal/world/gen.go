package world

import (
	"context"
	"math"
	"time"

	"repro/internal/cartographer"
	"repro/internal/flowsim"
	"repro/internal/hdratio"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// maxSimulatedTxns caps how many transactions per session run through
// the transfer model; sessions can have 1000+ transactions (Figure 3)
// and the HDratio evidence saturates long before that.
const maxSimulatedTxns = 48

// Batch is one group's full sample stream — the unit of work in the
// concurrent generation pipeline. Samples are in the group's canonical
// order (windows ascending, sessions in draw order), so delivering
// batches in Group order reproduces the exact sequential stream.
type Batch struct {
	Group   int
	Samples []sample.Sample
	// Lost counts sessions this group's windows would have produced but
	// for a PoP outage (World.PoPDown) — the degradation ledger's
	// per-batch contribution.
	Lost int
}

// Generate produces the full dataset, invoking emit for every sampled
// session in deterministic order (group by group, windows ascending).
// Generation is parallel across groups; emission is ordered.
func (w *World) Generate(emit func(sample.Sample)) {
	// Only context cancellation or a failing deliver can error, and this
	// legacy path has neither.
	_ = w.GenerateCtx(context.Background(), pipeline.DefaultWorkers(), emit)
}

// GenerateCtx is Generate with explicit worker count and cancellation:
// workers ≤ 1 simulates groups on the calling goroutine (beside each
// group's workload drawer, as at every count); larger counts fan group
// simulation out over a worker pool while keeping emission in
// sequential order. Cancelling ctx stops generation at the next window
// and returns the cause.
func (w *World) GenerateCtx(ctx context.Context, workers int, emit func(sample.Sample)) error {
	return w.GenerateBatches(ctx, workers, func(b Batch) error {
		for _, s := range b.Samples {
			emit(s)
		}
		return nil
	})
}

// GenerateBatches streams per-group batches to deliver in ascending
// group order (deliver runs on one goroutine; its error poisons the
// pipeline): GenerateSelected over every group, plus a reorder stage.
// Each group's RNG lineage is independent (rng.ChildAt per group), so
// the batch contents are identical at any worker count — ordered
// delivery then makes the whole stream identical. When W.Rec is set,
// each worker goroutine owns one trace buffer; the events a group emits
// are identical whichever worker simulates it. Delivery is the "emit"
// stage of the world's metrics and where its sessions are counted, so
// both read the same at every worker count. No batch is delivered once
// ctx is done: the reorder stage may already hold every later group,
// simulated before the cancel, and would otherwise deliver them all and
// return nil.
func (w *World) GenerateBatches(ctx context.Context, workers int, deliver func(Batch) error) error {
	handle := deliver
	deliver = func(b Batch) error {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		sp := w.obs.emit.Start()
		defer sp.End()
		w.obs.sessions.Add(int64(len(b.Samples)))
		return handle(b)
	}
	all := make([]int, len(w.Groups))
	for i := range all {
		all[i] = i
	}
	if workers <= 1 { // everything on the calling goroutine
		return w.GenerateSelected(ctx, 1, all, func(_ int, b Batch) error { return deliver(b) })
	}
	g := pipeline.NewGroup(ctx)
	out := pipeline.NewStream[Batch](workers)
	g.Go(func(ctx context.Context) error {
		defer out.Close()
		return w.GenerateSelected(ctx, workers, all, func(_ int, b Batch) error { return out.Send(ctx, b) })
	})
	g.Go(func(ctx context.Context) error {
		return pipeline.Reorder(ctx, out, func(b Batch) int { return b.Group }, 0, deliver)
	})
	return g.Wait()
}

// GenerateSelected simulates the given groups — every group, or the
// subset a checkpointed run's manifest does not yet account for — on up
// to workers goroutines. It is the world's one group worker pool:
// handle runs concurrently on the workers (on the calling goroutine at
// workers ≤ 1), once per group, in no particular order. handle receives
// order, the group's position in groups, so callers can restore the
// requested order densely (pipeline.Reorder needs a gapless sequence)
// even when the selection has gaps. Cancelling ctx stops generation at
// the next window of each group being simulated and returns the cause.
func (w *World) GenerateSelected(ctx context.Context, workers int, groups []int, handle func(order int, b Batch) error) error {
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 {
		buf := w.Rec.Buf()
		for o, i := range groups {
			if err := ctx.Err(); err != nil {
				return context.Cause(ctx)
			}
			b, err := w.generateBatch(ctx, i, buf)
			if err != nil {
				return err
			}
			if err := handle(o, b); err != nil {
				return err
			}
		}
		return nil
	}
	type job struct{ order, group int }
	idx := make(chan job, len(groups))
	for o, i := range groups {
		idx <- job{order: o, group: i}
	}
	close(idx)
	g := pipeline.NewGroup(ctx)
	g.GoPool(workers, func(ctx context.Context, _ int) error {
		buf := w.Rec.Buf()
		for j := range idx {
			if err := ctx.Err(); err != nil {
				return context.Cause(ctx)
			}
			b, err := w.generateBatch(ctx, j.group, buf)
			if err != nil {
				return err
			}
			if err := handle(j.order, b); err != nil {
				return err
			}
		}
		return nil
	}, nil)
	return g.Wait()
}

// generateBatch simulates one group under the generation span, into a
// buffer sized once for the group (sessionCapacity) rather than grown
// by doubling as the sessions arrive.
func (w *World) generateBatch(ctx context.Context, i int, tb *trace.Buf) (Batch, error) {
	sp := w.obs.genStage.Start()
	buf := make([]sample.Sample, 0, w.sessionCapacity(w.Groups[i]))
	lost, err := w.generateGroup(ctx, i, tb, func(s sample.Sample) { buf = append(buf, s) })
	sp.End()
	return Batch{Group: i, Samples: buf, Lost: lost}, err
}

// sessionCapacity is a capacity for one group's samples that its
// session count exceeds only by chance: the sum of its windows' Poisson
// means (generateWindow) plus four standard deviations of that sum.
// Only a buffer's capacity depends on it, never a draw.
func (w *World) sessionCapacity(g *Group) int {
	mean := 0.0
	for win := 0; win < w.Cfg.Windows(); win++ {
		mean += w.windowMean(g, win)
	}
	return capacityFor(mean)
}

// windowMean is the Poisson mean of one group × window's session count.
func (w *World) windowMean(g *Group, win int) float64 {
	return w.Cfg.SessionsPerGroupWindow * g.Weight * activity((win/4)%24, g.ActivityPeakUTC)
}

// capacityFor is a buffer capacity that a Poisson count (or a sum of
// them) of the given mean exceeds only by chance: four standard
// deviations above the mean, plus four more for the heavier upper tail
// of a single window's small mean (at most ~1e-5 of windows exceed it).
func capacityFor(mean float64) int {
	return int(mean+4*math.Sqrt(mean)) + 5
}

// GenerateAll buffers the whole dataset; intended for tests and small
// configurations.
func (w *World) GenerateAll() []sample.Sample {
	var out []sample.Sample
	w.Generate(func(s sample.Sample) { out = append(out, s) })
	return out
}

// GenerateGroup produces every sample for one group across all windows
// and returns the number of sessions suppressed by PoP outages
// (World.PoPDown), 0 when no outage machinery is installed.
func (w *World) GenerateGroup(groupIdx int, emit func(sample.Sample)) int {
	// Nothing cancels a background context, so there is no error.
	lost, _ := w.generateGroup(context.Background(), groupIdx, nil, emit)
	return lost
}

// generateGroup is GenerateGroup with trace emission and cancellation:
// one generation span per group, one window mark per window, and
// loss/fault events for outage-suppressed windows. Every coordinate is
// logical (group index, window index), so the events are identical at
// any worker count. The group's workload draws run ahead on a drawer
// goroutine of their own (draw.go), stopped and waited for before
// generateGroup returns. Cancelling ctx stops the group at its next
// window (or while it waits on the drawer) and returns the cause.
func (w *World) generateGroup(ctx context.Context, groupIdx int, tb *trace.Buf, emit func(sample.Sample)) (int, error) {
	g := w.Groups[groupIdx]
	r := rng.ChildAt(w.Cfg.Seed, "traffic", groupIdx)
	sc := sessionScratch{ring: newSpecRing(workload.NewGenerator(r.Child("workload"), workload.Config{}))}
	stop := startDrawers(ctx, &w.obs, sc.ring)
	defer stop()
	track := trace.GroupTrack(groupIdx)
	tsp := tb.Begin(track, trace.PhaseGen, -1, 0, "generate")
	seq := uint64(0)
	lost, emitted := 0, 0
	for win := 0; win < w.Cfg.Windows(); win++ {
		wl, wn, err := w.generateWindow(ctx, g, uint64(groupIdx), win, r, &sc, &seq, emit)
		if err != nil {
			tsp.End(int64(emitted))
			return lost, err
		}
		lost += wl
		emitted += wn
		tb.Emit(trace.Event{Track: track, Phase: trace.PhaseGen, Win: int32(win), Seq: uint64(win),
			Kind: trace.KMark, Stage: "window", Value: int64(wn)})
		if wl > 0 {
			tb.Emit(trace.Event{Track: track, Phase: trace.PhaseGen, Win: int32(win), Seq: uint64(win),
				Kind: trace.KFault, Stage: "generate", Value: int64(wl), Detail: "pop-outage"})
			tb.Loss(track, trace.PhaseGen, int32(win), uint64(win), "generate", trace.LossOutage, wl)
		}
		w.obs.windows.Inc()
	}
	tsp.End(int64(emitted))
	w.obs.groups.Inc()
	return lost, nil
}

// sessionScratch is one group's per-session state on the simulating
// goroutine: the read end of the group's draw-ahead ring and the
// transaction observations the methodology tallies, reused from session
// to session. No Sample aliases the observations.
type sessionScratch struct {
	ring *specRing
	txns []hdratio.Transaction
}

// generateWindow produces the samples for one group × window and
// returns (sessions lost to a PoP outage, sessions emitted). Its error
// is ctx's cause: no window begins once ctx is done, and one that waits
// on the drawer when ctx ends stops there.
func (w *World) generateWindow(ctx context.Context, g *Group, groupIdx uint64, win int, r *rng.RNG,
	sc *sessionScratch, seq *uint64, emit func(sample.Sample)) (int, int, error) {
	if ctx.Err() != nil {
		return 0, 0, context.Cause(ctx)
	}

	hour := (win / 4) % 24
	n := poisson(r, w.windowMean(g, win))
	winStart := time.Duration(win) * WindowDuration

	// Cartographer may have remapped the group to another PoP for this
	// window (§3.4.2's coverage-gap cause).
	pop := g.PoP
	remapped := false
	if len(g.PoPSchedule) > 1 {
		if cur := cartographer.PoPAt(g.PoPSchedule, win); cur.Name != g.PoP {
			pop, remapped = cur.Name, true
		}
	}

	// A PoP-wide outage takes the collection fabric down at the serving
	// PoP (checked after the remap so an outage at the remap target is
	// honoured): sessions still occur — the simulation consumes its RNG
	// lineage unchanged, so every other window stays byte-identical to
	// the no-outage dataset — but their measurements are never
	// collected, and the window's samples are accounted as lost.
	down := w.PoPDown != nil && w.PoPDown(pop, win)
	if down {
		w.obs.outageLost.Add(int64(n))
	}

	for i := 0; i < n; i++ {
		d, err := sc.ring.next(ctx, &w.obs)
		if err != nil {
			return 0, 0, err
		}
		*seq++
		s := w.generateSession(g, win, hour, r, d, sc, remapped)
		s.PoP = pop
		s.SessionID = groupIdx<<40 | *seq
		s.Start = winStart + time.Duration(r.Int64N(int64(WindowDuration)))
		if down {
			continue
		}
		emit(s)
	}
	if down {
		return n, 0, nil
	}
	return 0, n, nil
}

// generateSession runs one sampled session, drawn ahead as d, through
// the transfer model and the measurement methodology.
func (w *World) generateSession(g *Group, win, hour int,
	r *rng.RNG, d *drawnSession, sc *sessionScratch, remapped bool) sample.Sample {

	// Route pinning (§2.2.3): sampled sessions are pinned in
	// coordination with Edge Fabric — ~47% ride the policy-preferred
	// route, the rest measure the alternates.
	alt := w.pinner.Pin(r, len(g.Routes))
	rc := g.Routes[alt]

	path := w.pathConditions(g, rc, alt, win, hour, r)
	if remapped {
		path.PropRTT += g.RemapRTTDelta
	}
	spec := &d.spec

	fs := flowsim.NewSession(path, flowsim.Config{}, r)
	nSim := min(len(spec.Txns), maxSimulatedTxns)
	txns := sc.txns[:0]
	var busy time.Duration
	var prevEnd time.Duration
	for _, t := range spec.Txns[:nSim] {
		// Idle gap since the previous transfer finished: long gaps
		// collapse the congestion window (slow start after idle), which
		// is exactly what the methodology's Wstart chaining compensates
		// for (§3.2.2).
		idle := t.At - prevEnd
		res := fs.TransferAfterIdle(t.Bytes, idle)
		txns = append(txns, res.Observation)
		busy += res.RawDuration
		end := t.At + res.RawDuration
		if end > prevEnd {
			prevEnd = end
		}
	}
	if nSim > 0 && len(spec.Txns) > nSim {
		// Extrapolate busy time for the unsimulated tail.
		busy += time.Duration(float64(busy) / float64(nSim) * float64(len(spec.Txns)-nSim))
	}
	busyFrac := 0.0
	if spec.Duration > 0 {
		busyFrac = float64(busy) / float64(spec.Duration)
		if busyFrac > 0.98 {
			busyFrac = 0.98
		}
	}

	sc.txns = txns
	hd := hdratio.Tally(hdratio.Session{MinRTT: fs.MinRTT(), Transactions: txns}, hdratio.DefaultConfig())

	return sample.Sample{
		PoP:             g.PoP,
		DistanceKm:      g.DistanceKm,
		CrossContinent:  g.CrossContinent,
		ClientSubnet:    uint8(r.IntN(4)),
		Prefix:          g.Prefix,
		ClientAS:        g.ASN,
		Country:         g.Country,
		Continent:       g.Continent,
		Proto:           spec.Proto,
		RouteID:         rc.Route.ID,
		RouteRel:        rc.Route.Rel,
		ASPathLen:       rc.Route.PathLen(),
		Prepended:       rc.Route.Prepended(),
		AltIndex:        alt,
		Duration:        spec.Duration,
		BusyFraction:    busyFrac,
		Bytes:           d.bytes,
		Transactions:    len(spec.Txns),
		ResponseBytes:   d.resp,
		MediaEndpoint:   spec.Media,
		MinRTT:          fs.MinRTT(),
		HDTested:        hd.Tested,
		HDAchieved:      hd.Achieved,
		SimpleAchieved:  hd.SimpleAchieved,
		HostingProvider: r.Bool(w.Cfg.HostingShare),
	}
}

// pathConditions assembles the flow-level path for one session.
func (w *World) pathConditions(g *Group, rc RouteCondition, alt, win, hour int, r *rng.RNG) flowsim.Path {
	base := g.BaseRTT
	if ps := g.PopulationShift; ps != nil && r.Bool(ps.AltShareByHour[hour]) {
		base = ps.AltRTT
	}
	rtt := base + rc.RTTDelta
	loss := g.BaseLoss + rc.LossDelta
	jitter := 700*time.Microsecond + rtt/35

	// Destination-network degradation (§5) affects every route.
	bwFactor := 1.0
	if w.degradeActive(g, win, hour) {
		rtt += g.DegradeRTT
		loss += g.DegradeLoss
		jitter += g.DegradeRTT / 4
		if g.DegradeBW > 0 {
			bwFactor = g.DegradeBW
		}
	}
	// Opportunity penalties (§6) hit only the preferred route, so the
	// best alternate wins while the episode lasts.
	if alt == 0 && w.oppActive(g, win, hour) {
		rtt += g.OppRTT
		loss += g.OppLoss
	}

	access := units.Rate(r.LogNormalMedian(float64(g.Access), g.AccessSigma) * bwFactor)
	if access < 100*units.Kbps {
		access = 100 * units.Kbps
	}
	if access > 300*units.Mbps {
		access = 300 * units.Mbps
	}
	if loss > 0.3 {
		loss = 0.3
	}
	return flowsim.Path{
		PropRTT:         rtt,
		Bottleneck:      access,
		LossProb:        loss,
		JitterMean:      jitter,
		BottleneckSigma: 0.45,
		PoliceRate:      g.PoliceRate,
		PoliceBurst:     g.PoliceBurst,
	}
}

// degradeActive reports whether the group's degradation is in effect.
func (w *World) degradeActive(g *Group, win, hour int) bool {
	switch g.DegradeClass {
	case Continuous:
		return true
	case Diurnal:
		return inPeak(hour, g.PeakStartHour)
	case Episodic:
		return g.EpisodeWindows[win]
	}
	return false
}

// oppActive reports whether the preferred-route penalty is in effect.
func (w *World) oppActive(g *Group, win, hour int) bool {
	switch g.OppClass {
	case Continuous:
		return true
	case Diurnal:
		return inPeak(hour, g.ActivityPeakUTC)
	case Episodic:
		return g.EpisodeWindows[win]
	}
	return false
}

// inPeak reports whether hour falls in the 4-hour window from start.
func inPeak(hour, start int) bool {
	d := ((hour-start)%24 + 24) % 24
	return d < 4
}

// activity is the diurnal demand curve: sessions concentrate around the
// local evening peak.
func activity(hourUTC, peakUTC int) float64 {
	d := float64(((hourUTC-peakUTC)%24 + 24) % 24)
	if d > 12 {
		d = 24 - d
	}
	// Cosine bump: 1.4 at the peak, 0.4 at the trough.
	return 0.9 + 0.5*math.Cos(math.Pi*d/12)
}

// poisson draws a Poisson variate via Knuth's method (means here are
// small) with a normal approximation above 30.
func poisson(r *rng.RNG, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := int(r.Normal(mean, math.Sqrt(mean)) + 0.5)
		if v < 0 {
			return 0
		}
		return v
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for p > l {
		k++
		p *= r.Float64()
	}
	return k - 1
}
