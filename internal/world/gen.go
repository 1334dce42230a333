package world

import (
	"context"
	"math"
	"sync/atomic"
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

// Batch is one day of one group's sample stream — the unit of work in
// the concurrent generation pipeline. Samples are in the group's
// canonical order (windows ascending, sessions in draw order), so a
// group's days in day order are its exact sequential stream.
type Batch struct {
	Group, Day int
	Samples    []sample.Sample
	// Lost counts sessions this day's windows would have produced but
	// for a PoP outage (World.PoPDown) — the degradation ledger's
	// per-batch contribution.
	Lost int
}

// GenerateBatches is GenerateBatchesOf every group of the world.
func (w *World) GenerateBatches(ctx context.Context, workers int, deliver func(Batch) error) error {
	all := make([]int, len(w.Groups))
	for gi := range all {
		all[gi] = gi
	}
	return w.GenerateBatchesOf(ctx, all, workers, deliver)
}

// GenerateBatchesOf streams the days of the given world groups to
// deliver, which runs on one goroutine and owns each batch it is handed
// (its error poisons the pipeline): up to workers goroutines (at least
// one) claim the groups in the order given and simulate each day by
// day, each on a trace buffer of its own, and every day waits for
// deliver in one stream of pipeline.Window(workers) days. A group's
// days arrive in day order, and groups arrive in the order they finish
// — at one worker, the order given. Each group's RNG lineage is
// independent (rng.ChildAt per group), so every day's contents are
// identical at any worker count and in any order. A slow deliver holds
// back at most that window of days and one finished on each worker;
// the days waiting are pipeline_queue_depth{stage="generate"}, and
// delivery is the "emit" stage of the world's metrics. No batch is
// delivered once ctx is done.
func (w *World) GenerateBatchesOf(ctx context.Context, groups []int, workers int, deliver func(Batch) error) error {
	days := pipeline.NewStream[Batch](pipeline.Window(workers))
	days.Instrument(w.obs.reg, "generate")
	n := max(1, min(workers, len(groups)))
	var next, running atomic.Int64 // the next index of groups to claim; the workers not done
	running.Store(int64(n))
	g := pipeline.NewGroup(ctx)
	g.GoPool(n, func(ctx context.Context, _ int) error {
		tb := w.Rec.Buf()
		for i := next.Add(1) - 1; i < int64(len(groups)); i = next.Add(1) - 1 {
			if err := w.generateDays(ctx, tb, groups[i], days); err != nil {
				return err // and ends the run, so the stream need not close
			}
		}
		if running.Add(-1) == 0 {
			days.Close() // the days sent are all delivered before Range returns
		}
		return nil
	})
	g.Go(func(ctx context.Context) error {
		return days.Range(ctx, func(b Batch) error {
			if err := context.Cause(ctx); err != nil {
				return err
			}
			sp := w.obs.emit.Start()
			defer sp.End()
			return deliver(b)
		})
	})
	return g.Wait()
}

// generateDays simulates group gi on the calling goroutine, recording
// on tb, which the caller owns, and sends each day to days as it
// completes; the events a group emits are identical whichever goroutine
// simulates it. A day's buffer is sized once, for the day's windows
// (dayCapacity), rather than grown by doubling as the sessions arrive.
// The group's workload draws run ahead on a drawer goroutine of their
// own (draw.go), stopped and waited for before generateDays returns.
// Cancelling ctx stops the group at its next window (or while it waits
// on the drawer or on the stream) and returns the cause.
func (w *World) generateDays(ctx context.Context, tb *trace.Buf, gi int, days *pipeline.Stream[Batch]) error {
	fd := w.newGroupFeed(gi)
	stop := startDrawers(ctx, &w.obs, fd.sc.ring)
	defer stop()
	for day := range w.Cfg.Days {
		b := Batch{Group: gi, Day: day, Samples: make([]sample.Sample, 0, w.dayCapacity(w.Groups[gi], day))}
		for range WindowsPerDay {
			samples, lost, err := fd.window(ctx, tb, b.Samples)
			if err != nil {
				return err
			}
			b.Samples, b.Lost = samples, b.Lost+lost
		}
		if err := days.Send(ctx, b); err != nil {
			return err
		}
	}
	return nil
}

// dayCapacity is a capacity for one group's samples of one day that
// its session count exceeds only by chance: the sum of the day's
// windows' Poisson means (groupFeed.window) plus three and a half
// standard deviations of that sum, plus one. Only a buffer's capacity
// depends on it, never a draw.
func (w *World) dayCapacity(g *Group, day int) int {
	mean := 0.0
	for win := day * WindowsPerDay; win < (day+1)*WindowsPerDay; win++ {
		mean += w.windowMean(g, win)
	}
	return int(mean+3.5*math.Sqrt(mean)) + 1
}

// windowMean is the Poisson mean of one group × window's session count.
func (w *World) windowMean(g *Group, win int) float64 {
	return w.Cfg.SessionsPerGroupWindow * g.Weight * activity((win/4)%24, g.ActivityPeakUTC)
}

// GenerateAll buffers the whole dataset in its canonical (group, day)
// order — the one-worker delivery order; intended for tests and small
// configurations.
func (w *World) GenerateAll() []sample.Sample {
	var out []sample.Sample
	// Only a cancel or a failing deliver can error, and this has neither.
	_ = w.GenerateBatches(context.Background(), 1, func(b Batch) error {
		out = append(out, b.Samples...)
		return nil
	})
	return out
}

// GenerateGroup produces every sample for one group across all windows
// and returns the number of sessions suppressed by PoP outages
// (World.PoPDown), 0 when no outage machinery is installed.
func (w *World) GenerateGroup(groupIdx int, emit func(sample.Sample)) int {
	lost := 0
	// Only a cancel or a failing deliver can error, and this has neither.
	_ = w.GenerateBatchesOf(context.Background(), []int{groupIdx}, 1, func(b Batch) error {
		for _, s := range b.Samples {
			emit(s)
		}
		lost += b.Lost
		return nil
	})
	return lost
}

// groupFeed is one group's generation state and the world's one
// per-group generator: its RNG lineage, the read end of its draw-ahead
// ring, its session scratch and its session sequence, advanced one
// window at a time by window. The batch generator (generateDays) runs
// a feed through every window in one loop; the live feed keeps one per
// group alive between windows, so the lineage advances exactly as in
// one uninterrupted sweep. Every driver generates and records through
// window, so their samples, trace events and world metrics agree by
// construction.
type groupFeed struct {
	w       *World
	group   int
	track   string // the group's trace track
	r       *rng.RNG
	sc      sessionScratch
	seq     uint64
	next    int // the next window the group generates
	emitted int // cumulative samples, for the gen span's closing value
	// slots is the live feed's ring of window buffers: window w fills
	// slot w mod WindowsPerDay, lent to deliver until the window a day
	// later refills it.
	slots [][]sample.Sample
}

// newGroupFeed sets up group gi's generation state at its first window.
func (w *World) newGroupFeed(gi int) *groupFeed {
	r := rng.ChildAt(w.Cfg.Seed, "traffic", gi)
	return &groupFeed{w: w, group: gi, track: trace.GroupTrack(gi), r: r,
		sc: sessionScratch{ring: newSpecRing(workload.NewGenerator(r.Child("workload"), workload.Config{}))}}
}

// sessionScratch is one group's per-session state on the simulating
// goroutine: the read end of the group's draw-ahead ring and the
// transaction observations the methodology tallies, reused from session
// to session. No Sample aliases the observations.
type sessionScratch struct {
	ring *specRing
	txns []hdratio.Transaction
}

// window generates the group's next window, appending its kept
// samples to buf in draw order, and records it on tb, which the calling
// goroutine owns: the group's PhaseGen span (begun at its first window,
// ended at its last or when ctx stops it), a mark per window, and a
// fault and a loss for a window an outage suppressed, all at logical
// coordinates (group, window), so the events are identical at any
// worker count; and the world's generate stage time and its session,
// window and group counters. It returns buf and the sessions lost to a PoP
// outage. An empty buf too small for the window's session count, drawn
// before its first session, is made again at exactly that count — how a
// live ring slot is sized to its window; a buf that already holds
// samples grows as append grows it. Its error is ctx's cause: no window
// begins once ctx is done, and one that waits on the drawer when ctx
// ends stops there.
func (fd *groupFeed) window(ctx context.Context, tb *trace.Buf, buf []sample.Sample) ([]sample.Sample, int, error) {
	w, g, track, win := fd.w, fd.w.Groups[fd.group], fd.track, fd.next
	fd.next++
	if win == 0 {
		tb.Emit(trace.Event{Track: track, Phase: trace.PhaseGen, Win: -1, Kind: trace.KBegin, Stage: "generate"})
	}
	end := func() {
		tb.Emit(trace.Event{Track: track, Phase: trace.PhaseGen, Win: -1, Kind: trace.KEnd, Stage: "generate", Value: int64(fd.emitted)})
	}
	if ctx.Err() != nil {
		end()
		return buf, 0, context.Cause(ctx)
	}
	sp := w.obs.genStage.Start()
	defer sp.End()

	hour := (win / 4) % 24
	n := poisson(fd.r, w.windowMean(g, win))
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
	if len(buf) == 0 && !down && n > cap(buf) {
		buf = make([]sample.Sample, 0, n)
	}
	for i := 0; i < n; i++ {
		d, err := fd.sc.ring.next(ctx, &w.obs)
		if err != nil {
			end()
			return buf, 0, err
		}
		fd.seq++
		s := w.generateSession(g, win, hour, fd.r, d, &fd.sc, remapped)
		s.PoP = pop
		s.SessionID = uint64(fd.group)<<40 | fd.seq
		s.Start = winStart + time.Duration(fd.r.Int64N(int64(WindowDuration)))
		if !down {
			buf = append(buf, s)
		}
	}

	lost, kept := 0, n
	if down {
		lost, kept = n, 0
		w.obs.outageLost.Add(int64(n))
	}
	fd.emitted += kept
	w.obs.sessions.Add(int64(kept))
	w.obs.windows.Inc()
	tb.Emit(trace.Event{Track: track, Phase: trace.PhaseGen, Win: int32(win), Seq: uint64(win),
		Kind: trace.KMark, Stage: "window", Value: int64(kept)})
	if lost > 0 {
		tb.Emit(trace.Event{Track: track, Phase: trace.PhaseGen, Win: int32(win), Seq: uint64(win),
			Kind: trace.KFault, Stage: "generate", Value: int64(lost), Detail: "pop-outage"})
		tb.Loss(track, trace.PhaseGen, int32(win), uint64(win), "generate", trace.LossOutage, lost)
	}
	if fd.next == w.Cfg.Windows() {
		end()
		w.obs.groups.Inc()
	}
	return buf, lost, nil
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
