package world

import (
	"context"
	"fmt"

	"repro/internal/obs"
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
	// Samples is valid until deliver returns. It is one slot of the
	// group's ring of WindowsPerDay window buffers, which the group's
	// window a day later refills, so a consumer that keeps a sample
	// copies it.
	Samples []sample.Sample
	// Lost counts sessions this window would have produced but for a
	// PoP outage (World.PoPDown).
	Lost int
}

// LiveFeed generates the world window-major: it delivers every group's
// window w before any group's window w+1 — the run's logical clock. It
// is the ingest source of the always-on study daemon (internal/studyd);
// sealing decisions key on the window index, never on wall time, so
// live runs stay deterministic and replayable.
type LiveFeed struct {
	w     *World
	feeds []*groupFeed
}

// NewLiveFeed builds the per-group generation states for w.
func NewLiveFeed(w *World) *LiveFeed {
	f := &LiveFeed{w: w, feeds: make([]*groupFeed, len(w.Groups))}
	for gi := range w.Groups {
		f.feeds[gi] = w.newGroupFeed(gi)
		f.feeds[gi].slots = make([][]sample.Sample, WindowsPerDay)
	}
	return f
}

// generate advances one group by exactly one window, recording it on
// tb. Windows must be requested in order per group — the RNG lineage
// is a stream, not an index — so a skipped or repeated window is a
// programming error. Window win is generated into slot win mod
// WindowsPerDay of the group's ring, made at the window's session
// count when it is drawn and made again only when a later day's count
// exceeds it (groupFeed.window). Its error is ctx's cause, when ctx
// ends while the window waits on the group's drawer.
func (f *LiveFeed) generate(ctx context.Context, tb *trace.Buf, gi, win int) (WindowBatch, error) {
	fd := f.feeds[gi]
	if win != fd.next {
		panic(fmt.Sprintf("world: live feed asked for group %d window %d, expected %d (windows are a stream)", gi, win, fd.next))
	}
	slot := &fd.slots[win%WindowsPerDay]
	buf, lost, err := fd.window(ctx, tb, (*slot)[:0])
	*slot = buf
	return WindowBatch{Group: gi, Win: win, Samples: buf, Lost: lost}, err
}

// Run streams the whole world window-major. min(workers, groups)
// generator goroutines each own a fixed set of groups and simulate
// them window by window, each recording on a trace buffer of its own,
// through the batch generator's method (groupFeed.window), so the
// trace and the world metrics are the batch run's. Each group's
// windows wait in a queue of its own, in window order; the calling
// goroutine reads the queues in (window, group) order, delivers every
// batch and calls seal with the window index after the window's last
// group — the logical-clock tick the daemon's sealing keys on — so the
// consumer sees the same sequence at any worker count. deliver and
// seal run on the calling goroutine; their errors, and ctx's end, stop
// the generators and return.
//
// The generators run ahead of the consumer by up to one day: a group's
// window w fills slot w mod WindowsPerDay of its ring only once window
// w − WindowsPerDay has been delivered from it, so a batch's Samples
// are lent until deliver returns, at most groups × WindowsPerDay
// batches wait (world_feed_batches_ahead), and the consumer's waits on
// an empty queue are world_feed_wait_seconds. Every group's workload
// drawer runs for the length of Run and is stopped and waited for on
// every return; what the drawers drew ahead stays in the feed.
func (f *LiveFeed) Run(ctx context.Context, workers int, deliver func(WindowBatch) error, seal func(win int) error) error {
	windows, groups, o := f.w.Cfg.Windows(), len(f.feeds), &f.w.obs
	rings := make([]*specRing, groups)
	room := make([]chan struct{}, groups)     // room[gi] holds a token for each slot of group gi's ring in use
	ready := make([]chan WindowBatch, groups) // ready[gi] holds group gi's windows generated and not yet delivered
	for gi, fd := range f.feeds {
		rings[gi] = fd.sc.ring
		room[gi] = make(chan struct{}, len(fd.slots))
		ready[gi] = make(chan WindowBatch, len(fd.slots))
	}
	stop := startDrawers(ctx, o, rings...)
	defer stop()

	// A deliver or seal error cancels the generators before Run waits
	// for them: they stop at their next window instead of filling what
	// is left of their rings.
	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	g := pipeline.NewGroup(runCtx)
	n := max(1, min(workers, groups))
	g.GoPool(n, func(ctx context.Context, i int) error {
		tb := f.w.Rec.Buf()
		for win := range windows {
			for gi := i; gi < groups; gi += n {
				select {
				case room[gi] <- struct{}{}:
				case <-ctx.Done():
					return context.Cause(ctx)
				}
				b, err := f.generate(ctx, tb, gi, win)
				if err != nil {
					return err
				}
				o.feedAhead.Add(1)
				ready[gi] <- b // never blocks: the window's room token was a free place
			}
		}
		return nil
	})

	gctx := g.Context()
	err := func() error {
		for win := range windows {
			for gi := range groups {
				var sp obs.Span
				if len(ready[gi]) == 0 {
					sp = o.feedWait.Start()
				}
				var b WindowBatch
				select {
				case b = <-ready[gi]:
					sp.End()
				case <-gctx.Done():
					sp.End()
					return context.Cause(gctx)
				}
				o.feedAhead.Add(-1)
				if err := context.Cause(ctx); err != nil {
					return err
				}
				err := deliver(b)
				<-room[gi] // never blocks: the window delivered held a token
				if err == nil && gi == groups-1 {
					err = seal(win)
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	}()
	cancel(err)
	if werr := g.Wait(); err == nil {
		err = werr
	}
	for _, q := range ready {
		o.feedAhead.Add(-float64(len(q)))
	}
	return err
}
