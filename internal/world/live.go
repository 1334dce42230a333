package world

import (
	"context"
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/trace"
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
		f.feeds[gi] = w.newGroupFeed(gi)
	}
	return f
}

// generate advances one group by exactly one window, recording it on
// tb. Windows must be requested in order per group — the RNG lineage
// is a stream, not an index — so a skipped or repeated window is a
// programming error. The window is generated into the group's one
// buffer, which is replaced only when the window's estimate
// (capacityFor, as GenerateSelected sizes a group's) exceeds its
// capacity, so no window regrows it. Its error is ctx's cause, when
// ctx ends while the window waits on the group's drawer.
func (f *LiveFeed) generate(ctx context.Context, tb *trace.Buf, gi, win int) (WindowBatch, error) {
	fd := f.feeds[gi]
	if win != fd.next {
		panic(fmt.Sprintf("world: live feed asked for group %d window %d, expected %d (windows are a stream)", gi, win, fd.next))
	}
	if want := capacityFor(f.w.windowMean(f.w.Groups[gi], win)); want > cap(fd.buf) {
		fd.buf = make([]sample.Sample, 0, want)
	}
	buf := fd.buf[:0]
	lost, err := fd.window(ctx, tb, func(s sample.Sample) { buf = append(buf, s) })
	fd.buf = buf
	return WindowBatch{Group: gi, Win: win, Samples: buf, Lost: lost}, err
}

// Run streams the whole world window-major: for each window, group
// batches are generated on up to workers goroutines (each group's
// state is touched by exactly one worker per window, and the
// per-window barrier orders the touches across windows), delivered in
// ascending group order, then seal is invoked with the window index —
// the logical-clock tick the daemon's sealing keys on. Each group
// generates and records its window through the batch generator's
// method (groupFeed.window), on a trace buffer its worker owns, so the
// trace and the world metrics are the batch run's. deliver and seal
// run on one goroutine; their errors poison the run. A batch's Samples
// are the group's window buffer, lent until deliver returns: the
// barrier delivers a group's window before the group generates its
// next one into the same buffer. Every group's workload drawer runs
// for the length of Run and is stopped and waited for on every return;
// what the drawers drew ahead stays in the feed.
func (f *LiveFeed) Run(ctx context.Context, workers int, deliver func(WindowBatch) error, seal func(win int) error) error {
	windows := f.w.Cfg.Windows()
	workers = min(workers, len(f.w.Groups))
	rings := make([]*specRing, len(f.feeds))
	for gi, fd := range f.feeds {
		rings[gi] = fd.sc.ring
	}
	stop := startDrawers(ctx, &f.w.obs, rings...)
	defer stop()

	// One worker generates and delivers on the calling goroutine: a
	// pool would be set up and torn down for every window (96 a day)
	// to run the same program.
	if workers <= 1 {
		tb := f.w.Rec.Buf()
		for win := 0; win < windows; win++ {
			if err := ctx.Err(); err != nil {
				return context.Cause(ctx)
			}
			for gi := range f.w.Groups {
				b, err := f.generate(ctx, tb, gi, win)
				if err != nil {
					return err
				}
				if err := deliver(b); err != nil {
					return err
				}
			}
			if err := seal(win); err != nil {
				return err
			}
		}
		return nil
	}

	// A trace buffer per pool worker, kept across windows: the
	// per-window Wait orders one window's writes to a buffer before the
	// next window's.
	bufs := make([]*trace.Buf, workers)
	for i := range bufs {
		bufs[i] = f.w.Rec.Buf()
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
		g.GoPool(workers, func(ctx context.Context, i int) error {
			for gi := range idx {
				if err := ctx.Err(); err != nil {
					return context.Cause(ctx)
				}
				b, err := f.generate(ctx, bufs[i], gi, win)
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
			return pipeline.Reorder(ctx, out, func(b WindowBatch) int { return b.Group }, 0, deliver)
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
