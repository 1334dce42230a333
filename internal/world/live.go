package world

import (
	"context"
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/trace"
	"repro/internal/workload"
)

// WindowBatch is one group × window slice of the live sample stream —
// the unit of delivery in window-major generation. Samples are in the
// group's canonical draw order, so delivering windows ascending and
// groups ascending within each window reproduces exactly the samples
// the batch generator emits, just transposed to arrival order.
type WindowBatch struct {
	Group int
	Win   int
	// Samples is valid until deliver returns: the group's next window
	// is generated into the same buffer, so a consumer that keeps a
	// sample copies it.
	Samples []sample.Sample
	// Lost counts sessions this window would have produced but for a
	// PoP outage (World.PoPDown).
	Lost int
}

// groupFeed is one group's persistent generation state. The batch
// generator builds this state once per group and burns through every
// window in a loop; the live feed keeps it alive between windows so
// the RNG lineage, workload draw-ahead ring, and session sequence
// advance exactly as they would in one uninterrupted sweep — which is
// why a live run's samples are byte-identical to a batch run's.
type groupFeed struct {
	r       *rng.RNG
	sc      sessionScratch
	seq     uint64
	next    int // next window this group may generate
	emitted int // cumulative samples, for the gen span's closing value
	// buf is the group's one window buffer, lent to deliver and
	// refilled by the group's next window.
	buf []sample.Sample
}

// LiveFeed generates the world window-major: all groups advance
// through window w before any group touches window w+1 — the run's
// logical clock. It is the ingest source of the always-on study
// daemon (internal/studyd); sealing decisions key on the window
// index, never on wall time, so live runs stay deterministic and
// replayable.
type LiveFeed struct {
	w     *World
	feeds []*groupFeed
}

// NewLiveFeed builds the per-group generation states for w.
func NewLiveFeed(w *World) *LiveFeed {
	f := &LiveFeed{w: w, feeds: make([]*groupFeed, len(w.Groups))}
	for gi := range w.Groups {
		r := rng.ChildAt(w.Cfg.Seed, "traffic", gi)
		f.feeds[gi] = &groupFeed{r: r, sc: sessionScratch{ring: newSpecRing(workload.NewGenerator(r.Child("workload"), workload.Config{}))}}
	}
	return f
}

// generate advances one group by exactly one window. Windows must be
// requested in order per group — the RNG lineage is a stream, not an
// index — so a skipped or repeated window is a programming error. The
// window is generated into the group's one buffer, which is replaced
// only when the window's estimate (capacityFor, as generateBatch sizes
// a group's) exceeds its capacity, so no window regrows it. Its error
// is ctx's cause, when ctx ends while the window waits on the group's
// drawer.
func (f *LiveFeed) generate(ctx context.Context, gi, win int) (WindowBatch, error) {
	fd := f.feeds[gi]
	if win != fd.next {
		panic(fmt.Sprintf("world: live feed asked for group %d window %d, expected %d (windows are a stream)", gi, win, fd.next))
	}
	fd.next++
	g := f.w.Groups[gi]
	if want := capacityFor(f.w.windowMean(g, win)); want > cap(fd.buf) {
		fd.buf = make([]sample.Sample, 0, want)
	}
	buf := fd.buf[:0]
	lost, _, err := f.w.generateWindow(ctx, g, uint64(gi), win, fd.r, &fd.sc, &fd.seq,
		func(s sample.Sample) { buf = append(buf, s) })
	fd.buf = buf
	return WindowBatch{Group: gi, Win: win, Samples: buf, Lost: lost}, err
}

// Run streams the whole world window-major: for each window, group
// batches are generated on up to workers goroutines (each group's
// state is touched by exactly one worker per window, and the
// per-window barrier orders the touches across windows), delivered in
// ascending group order, then seal is invoked with the window index —
// the logical-clock tick the daemon's sealing keys on. Trace events
// land on the same logical coordinates as the batch generator's:
// a PhaseGen span per group and a mark per group × window, with
// outage faults and losses attributed to their window. deliver and
// seal run on one goroutine; their errors poison the run. A batch's
// Samples are the group's window buffer, lent until deliver returns:
// the barrier delivers a group's window before the group generates its
// next one into the same buffer. Every group's workload drawer runs
// for the length of Run and is stopped and waited for on every return;
// what the drawers drew ahead stays in the feed.
func (f *LiveFeed) Run(ctx context.Context, workers int, deliver func(WindowBatch) error, seal func(win int) error) error {
	windows := f.w.Cfg.Windows()
	last := windows - 1
	if workers > len(f.w.Groups) {
		workers = len(f.w.Groups)
	}
	tb := f.w.Rec.Buf()
	rings := make([]*specRing, len(f.feeds))
	for gi, fd := range f.feeds {
		rings[gi] = fd.sc.ring
	}
	stop := startDrawers(ctx, &f.w.obs, rings...)
	defer stop()

	// handoff emits the batch's trace events (mirroring generateGroup's
	// coordinates) and hands it to the caller.
	handoff := func(b WindowBatch) error {
		fd := f.feeds[b.Group]
		track := trace.GroupTrack(b.Group)
		if b.Win == 0 {
			tb.Emit(trace.Event{Track: track, Phase: trace.PhaseGen, Win: -1, Seq: 0,
				Kind: trace.KBegin, Stage: "generate"})
		}
		tb.Emit(trace.Event{Track: track, Phase: trace.PhaseGen, Win: int32(b.Win), Seq: uint64(b.Win),
			Kind: trace.KMark, Stage: "window", Value: int64(len(b.Samples))})
		if b.Lost > 0 {
			tb.Emit(trace.Event{Track: track, Phase: trace.PhaseGen, Win: int32(b.Win), Seq: uint64(b.Win),
				Kind: trace.KFault, Stage: "generate", Value: int64(b.Lost), Detail: "pop-outage"})
			tb.Loss(track, trace.PhaseGen, int32(b.Win), uint64(b.Win), "generate", trace.LossOutage, b.Lost)
		}
		f.w.obs.windows.Inc()
		fd.emitted += len(b.Samples)
		if b.Win == last {
			tb.Emit(trace.Event{Track: track, Phase: trace.PhaseGen, Win: -1, Seq: 0,
				Kind: trace.KEnd, Stage: "generate", Value: int64(fd.emitted)})
			f.w.obs.groups.Inc()
		}
		return deliver(b)
	}

	if workers <= 1 {
		for win := 0; win < windows; win++ {
			if err := ctx.Err(); err != nil {
				return context.Cause(ctx)
			}
			for gi := range f.w.Groups {
				b, err := f.generate(ctx, gi, win)
				if err != nil {
					return err
				}
				if err := handoff(b); err != nil {
					return err
				}
			}
			if err := seal(win); err != nil {
				return err
			}
		}
		return nil
	}

	for win := 0; win < windows; win++ {
		if err := ctx.Err(); err != nil {
			return context.Cause(ctx)
		}
		idx := make(chan int, len(f.w.Groups))
		for gi := range f.w.Groups {
			idx <- gi
		}
		close(idx)
		g := pipeline.NewGroup(ctx)
		out := pipeline.NewStream[WindowBatch](workers)
		g.GoPool(workers, func(ctx context.Context, _ int) error {
			for gi := range idx {
				if err := ctx.Err(); err != nil {
					return context.Cause(ctx)
				}
				b, err := f.generate(ctx, gi, win)
				if err != nil {
					return err
				}
				if err := out.Send(ctx, b); err != nil {
					return err
				}
			}
			return nil
		}, out.Close)
		g.Go(func(ctx context.Context) error {
			return pipeline.Reorder(ctx, out, func(b WindowBatch) int { return b.Group }, 0, handoff)
		})
		// The per-window Wait is the live clock's barrier: every group's
		// window w is generated, delivered, and sealed before any state
		// advances to w+1, so worker count cannot reorder the stream.
		if err := g.Wait(); err != nil {
			return err
		}
		if err := seal(win); err != nil {
			return err
		}
	}
	return nil
}
