package world

import (
	"context"
	"sync"

	"repro/internal/workload"
)

// A group's session specs come off its own stream (r.Child("workload")),
// which no other draw of the group touches, so a goroutine of their own
// draws them ahead of the simulation that consumes them: the drawer
// fills a ring of ringChunks chunks of chunkSpecs specs, and the
// simulating goroutine reads them in draw order. The draws, and so every
// sample, are the same as drawing each spec in place.
//
// The ring is deep enough that the simulation seldom waits (3 × 32 specs
// starved it, 8 × 64 did not). Its memory is bounded per group: each
// chunk holds chunkSpecs specs plus one transaction arena, which keeps
// the largest chunk it has held — at most chunkSpecs × 1000 transactions
// of 16 bytes, 1 MiB; ~37 KiB in practice.
const (
	ringChunks = 8
	chunkSpecs = 64
)

// drawnSession is one drawn spec plus what the sample keeps of it,
// computed on the drawer: the recorded response sizes (ownership passes
// to the sample) and the session's total bytes.
type drawnSession struct {
	spec  workload.SessionSpec
	resp  []int64
	bytes int64
}

// specChunk is chunkSpecs drawn sessions whose transactions share one
// arena, reused from [:0] each time the chunk is drawn into again.
type specChunk struct {
	sessions [chunkSpecs]drawnSession
	txns     []workload.TxnSpec
}

// fill draws the chunk's sessions, in order, from gen.
func (c *specChunk) fill(gen *workload.Generator) {
	c.txns = c.txns[:0]
	for i := range c.sessions {
		d := &c.sessions[i]
		c.txns = gen.SessionInto(&d.spec, c.txns)
		d.resp = gen.RecordedResponses(d.spec)
		d.bytes = d.spec.TotalBytes()
	}
}

// specRing is one group's draw-ahead ring. The drawer goroutine
// (startDrawers) owns gen and moves chunks from free to full; the
// simulating goroutine owns cur and pos and moves chunks back. A ring
// outlives its drawers: a live feed's drawers stop when LiveFeed.Run
// returns, and whatever they drew stays in full, in order, so no drawn
// spec is ever discarded while the group is still being simulated.
type specRing struct {
	gen  *workload.Generator
	full chan *specChunk // drawn, in draw order
	free chan *specChunk // read, to be drawn into again
	cur  *specChunk      // the chunk being read
	pos  int             // the next session of cur
}

func newSpecRing(gen *workload.Generator) *specRing {
	rg := &specRing{
		gen:  gen,
		full: make(chan *specChunk, ringChunks),
		free: make(chan *specChunk, ringChunks),
		pos:  chunkSpecs,
	}
	for range ringChunks {
		rg.free <- &specChunk{txns: make([]workload.TxnSpec, 0, 16*chunkSpecs)}
	}
	return rg
}

// next returns the group's next drawn session, valid until the next
// call. On an empty ring it waits for the drawer (the wait is
// world_draw_wait_seconds) or for ctx, whose cause it returns.
func (rg *specRing) next(ctx context.Context, o *worldObs) (*drawnSession, error) {
	if rg.pos == chunkSpecs {
		if rg.cur != nil {
			rg.free <- rg.cur // never blocks: free has room for every chunk
		}
		select {
		case rg.cur = <-rg.full:
		default:
			sp := o.drawWait.Start()
			select {
			case rg.cur = <-rg.full:
				sp.End()
			case <-ctx.Done():
				sp.End()
				rg.cur = nil
				return nil, context.Cause(ctx)
			}
		}
		rg.pos = 0
	}
	d := &rg.cur.sessions[rg.pos]
	rg.pos++
	return d, nil
}

// draw fills free chunks until ctx is done. A chunk once begun is
// finished and queued, so stopping never loses a draw.
func (rg *specRing) draw(ctx context.Context, o *worldObs) {
	for {
		select {
		case <-ctx.Done():
			return
		case c := <-rg.free:
			sp := o.draw.Start()
			c.fill(rg.gen)
			sp.End()
			o.specsDrawn.Add(chunkSpecs)
			rg.full <- c // never blocks: full has room for every chunk
		}
	}
}

// startDrawers runs each ring's drawer on a goroutine of its own until
// ctx is done; the returned stop cancels them and waits until every one
// has returned.
func startDrawers(ctx context.Context, o *worldObs, rings ...*specRing) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for _, rg := range rings {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rg.draw(ctx, o)
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}
