// Package pipeline is the streaming-stage substrate for the repo's
// concurrent sample pipelines. The paper's production system processes
// hundreds of trillions of sessions by streaming samples through
// sharded aggregation with mergeable sketches (§3.3, §3.4.1 footnote
// 11); this package provides the three primitives that let the
// reproduction exploit the same structure without giving up its
// determinism oracle:
//
//   - Group: an error group whose first error cancels the shared
//     context, poisoning every stage — the concurrent generalisation of
//     the collector's sink-error semantics (one failed writer must stop
//     the whole pipeline).
//   - Stream: a bounded channel between stages. Sends block when the
//     consumer lags (backpressure) and abort when the pipeline is
//     poisoned; queue depth is observable on /metrics via
//     pipeline_queue_depth{stage="..."}.
//   - Ordered: the one ordered hand-off. Workers claim indices in
//     ascending order and finish them in whatever order the scheduler
//     dictates; one goroutine emits the results in index order, so a
//     sharded run's downstream fold sees exactly the order the
//     sequential run would — the property the byte-identical report
//     guarantee rests on.
//
// Ordered bounds what a pipeline holds: no index is claimed more than
// Window(workers) past the lowest one not yet emitted, so every stage
// between a claim and its emit together holds at most that many items,
// however slow the lowest one is.
package pipeline

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/obs"
)

// DefaultWorkers is the worker count used when a caller passes 0:
// GOMAXPROCS, the paper-pipeline analogue of one shard per core.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Group runs a set of pipeline stages that share a context. The first
// stage to return a non-nil error cancels the context (with the error
// as cause), poisoning every other stage; Wait returns that first
// error. The zero value is not usable; call NewGroup.
type Group struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
	wg     sync.WaitGroup
	once   sync.Once
	err    error
}

// NewGroup returns a stage group under parent (nil means Background).
func NewGroup(parent context.Context) *Group {
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancelCause(parent)
	return &Group{ctx: ctx, cancel: cancel}
}

// Context returns the group's shared context; stages and Streams use it
// so that poisoning reaches every blocking send and receive.
func (g *Group) Context() context.Context { return g.ctx }

// Go launches one stage.
func (g *Group) Go(f func(ctx context.Context) error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := f(g.ctx); err != nil {
			g.once.Do(func() {
				g.err = err
				g.cancel(err)
			})
		}
	}()
}

// GoPool launches n copies of worker (a fan-out stage). after, if
// non-nil, runs once every worker has returned — the slot where the
// pool closes its output Stream so downstream ranges terminate.
func (g *Group) GoPool(n int, worker func(ctx context.Context, i int) error, after func()) {
	var pool sync.WaitGroup
	pool.Add(n)
	for i := 0; i < n; i++ {
		i := i
		g.Go(func(ctx context.Context) error {
			defer pool.Done()
			return worker(ctx, i)
		})
	}
	if after != nil {
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			pool.Wait()
			after()
		}()
	}
}

// Wait blocks until every stage has returned and reports the first
// error (nil on a clean run). The group's context is cancelled either
// way, releasing any resources. Safe to call more than once.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.cancel(nil)
	return g.err
}

// cause unwraps a context's cancellation cause, falling back to the
// plain context error.
func cause(ctx context.Context) error {
	if err := context.Cause(ctx); err != nil {
		return err
	}
	return ctx.Err()
}

// Stream is a bounded channel between two pipeline stages. Sends block
// while the buffer is full (backpressure) and fail once the pipeline's
// context is poisoned.
type Stream[T any] struct {
	ch        chan T
	closeOnce sync.Once
}

// NewStream returns a stream buffering up to buf items (minimum 1).
func NewStream[T any](buf int) *Stream[T] {
	if buf < 1 {
		buf = 1
	}
	return &Stream[T]{ch: make(chan T, buf)}
}

// Instrument registers the stream's live queue depth and capacity on
// reg as pipeline_queue_depth{stage="name"} — sampled at exposition
// time, so the stream pays nothing per item. Nil-registry safe.
func (s *Stream[T]) Instrument(reg *obs.Registry, stage string) {
	ch := s.ch
	reg.GaugeFunc(obs.L("pipeline_queue_depth", "stage", stage), func() float64 {
		return float64(len(ch))
	})
	reg.GaugeFunc(obs.L("pipeline_queue_capacity", "stage", stage), func() float64 {
		return float64(cap(ch))
	})
}

// Send delivers v, blocking under backpressure; it returns the
// poisoning error if the pipeline is cancelled first.
func (s *Stream[T]) Send(ctx context.Context, v T) error {
	select {
	case s.ch <- v:
		return nil
	case <-ctx.Done():
		return cause(ctx)
	}
}

// Close marks the producer side done; Range on the consumer side then
// drains and returns. Only the producing stage may call Close (for
// pools, via GoPool's after hook). Idempotent: error-path teardown may
// Close a stream its happy path already closed without panicking.
func (s *Stream[T]) Close() {
	s.closeOnce.Do(func() { close(s.ch) })
}

// Drain consumes every remaining item until the stream is closed,
// passing each to f — error-path disposal for items that carry
// resources. Unlike Range it ignores context poisoning: it is called
// exactly when the pipeline is already poisoned and the goal is to
// account for stragglers the producers had already sent.
func (s *Stream[T]) Drain(f func(T)) {
	for v := range s.ch {
		f(v)
	}
}

// Range consumes items until the stream is closed (returning nil) or
// the pipeline is poisoned (returning the cause). f's error stops
// consumption immediately.
func (s *Stream[T]) Range(ctx context.Context, f func(T) error) error {
	for {
		select {
		case v, ok := <-s.ch:
			if !ok {
				return nil
			}
			if err := f(v); err != nil {
				return err
			}
		case <-ctx.Done():
			return cause(ctx)
		}
	}
}

// Window is how many indices an Ordered lets be claimed and not yet
// emitted, for workers goroutines that hold claimed indices: one being
// emitted, and two for each worker — the one it holds and one finished
// ahead of the stage after it. That is the run-ahead of a pool feeding
// its next stage through a queue of one item a worker, and at one
// worker it is one item emitting while the next waits and the one
// after is worked on.
func Window(workers int) int { return 2*max(workers, 1) + 1 }

// Ordered is the ordered hand-off between workers and one emitting
// goroutine, for the results of indices 0..n-1. Workers Claim indices
// in ascending order and File each result in a slot its claim
// reserved; Emit hands the results on in index order. A claim blocks
// while Window(workers) indices are claimed and not yet emitted, so no
// stage between a claim and its emit runs more than the window ahead of
// the lowest index still in flight, and File never blocks. Run is the
// one-stage form; a longer pipeline claims in its first stage, files in
// its last and emits from its tail.
type Ordered[T any] struct {
	workers, n int
	drop       func(T)
	room       chan int      // the indices that may be claimed, ascending; closed when emission ends
	slots      []chan T      // index i is filed in slots[i%len(slots)]
	closed     chan struct{} // closed by Close: nothing more is filed

	mu      sync.Mutex // orders File against the end of emission
	stopped bool       // emission has ended: File drops
}

// NewOrdered returns the hand-off for n indices held, between claim and
// file, by workers goroutines (at least one): Run's pool, or every pool
// of a longer pipeline from its first stage to its last. drop, if
// non-nil, receives every filed result that is never emitted — the
// disposal hook for results that carry resources (pooled batches); it
// must not block.
func NewOrdered[T any](workers, n int, drop func(T)) *Ordered[T] {
	if drop == nil {
		drop = func(T) {}
	}
	workers = max(workers, 1)
	o := &Ordered[T]{workers: workers, n: n, drop: drop,
		slots: make([]chan T, min(Window(workers), max(n, 1))), closed: make(chan struct{})}
	o.room = make(chan int, len(o.slots))
	for i := range o.slots {
		o.slots[i] = make(chan T, 1)
		if i < n {
			o.room <- i
		}
	}
	return o
}

// Instrument registers the results filed and not yet emitted on reg as
// pipeline_queue_depth{stage="name"}, sampled at exposition time, and
// the window as pipeline_queue_capacity. Nil-registry safe.
func (o *Ordered[T]) Instrument(reg *obs.Registry, stage string) {
	slots := o.slots
	reg.GaugeFunc(obs.L("pipeline_queue_depth", "stage", stage), func() float64 {
		n := 0
		for _, s := range slots {
			n += len(s)
		}
		return float64(n)
	})
	reg.Gauge(obs.L("pipeline_queue_capacity", "stage", stage)).Set(float64(len(slots)))
}

// Claim returns the next index, blocking while the window is full or
// every index is claimed. It returns false once emission has ended or
// ctx is done.
func (o *Ordered[T]) Claim(ctx context.Context) (int, bool) {
	select {
	case i, ok := <-o.room:
		return i, ok
	case <-ctx.Done():
		return 0, false
	}
}

// File hands over the result for claimed index i. It never blocks: the
// slot was emptied when index i − window was emitted. A result filed
// once emission has ended goes to drop.
func (o *Ordered[T]) File(i int, v T) {
	o.mu.Lock()
	if !o.stopped {
		o.slots[i%len(o.slots)] <- v // never blocks: the slot is empty
		o.mu.Unlock()
		return
	}
	o.mu.Unlock()
	o.drop(v)
}

// Close says nothing more will be filed; the producing stage calls it
// once its last worker has returned (GoPool's after hook). Emit then
// stops at the first index never filed: a producer that stopped early
// truncates the output to its contiguous prefix. Call it once.
func (o *Ordered[T]) Close() { close(o.closed) }

// Emit passes the results to emit in index order, on the calling
// goroutine, until all n are emitted (nil), a producer stopped early
// (nil, after the contiguous prefix), emit fails (its error), or ctx
// is done (its cause; no result is emitted once ctx is done). Then
// emission ends: claims fail, and every result filed and not emitted,
// now or later, goes to drop. A result emit fails on is emit's.
func (o *Ordered[T]) Emit(ctx context.Context, emit func(T) error) error {
	err := o.emit(ctx, emit)
	o.mu.Lock()
	o.stopped = true
	o.mu.Unlock()
	close(o.room)
	for range o.room { // indices no longer to be claimed
	}
	for _, s := range o.slots {
		for len(s) > 0 { // no File sends once stopped is set
			o.drop(<-s)
		}
	}
	return err
}

func (o *Ordered[T]) emit(ctx context.Context, emit func(T) error) error {
	for i := range o.n {
		slot := o.slots[i%len(o.slots)]
		var v T
		select {
		case v = <-slot:
		case <-o.closed:
			select {
			case v = <-slot:
			default:
				return context.Cause(ctx) // nil unless ctx is done
			}
		case <-ctx.Done():
			return cause(ctx)
		}
		if ctx.Err() != nil {
			o.drop(v)
			return cause(ctx)
		}
		if err := emit(v); err != nil {
			return err
		}
		if next := i + len(o.slots); next < o.n {
			o.room <- next // never blocks: i held the place
		}
	}
	return nil
}

// Run is the one-stage form: min(workers, n) goroutines claim indices
// and compute work(ctx, worker, i) — worker numbers the goroutine, for
// state it owns, such as a trace buffer — and the calling goroutine
// emits the results in index order. The first error of work or emit,
// or ctx's end, cancels the workers and is returned; work releases what
// it holds when it fails, and drop gets every other result not emitted.
func (o *Ordered[T]) Run(ctx context.Context, work func(ctx context.Context, worker, i int) (T, error), emit func(T) error) error {
	g := NewGroup(ctx)
	g.GoPool(min(o.workers, o.n), func(ctx context.Context, worker int) error {
		for {
			i, ok := o.Claim(ctx)
			if !ok {
				return nil
			}
			v, err := work(ctx, worker, i)
			if err != nil {
				return err
			}
			o.File(i, v)
		}
	}, o.Close)
	err := o.Emit(g.Context(), emit)
	g.cancel(err) // stops the workers, which an emit error leaves running
	if werr := g.Wait(); err == nil {
		err = werr
	}
	return err
}
