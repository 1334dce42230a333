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
//   - Ordered: the one ordered hand-off, run by its Run. A pool of
//     workers claims indices in ascending order and finishes them in
//     whatever order the scheduler dictates; the calling goroutine
//     emits the results in index order, so a sharded run's downstream
//     fold sees exactly the order the sequential run would — the
//     property the byte-identical report guarantee rests on.
//
// Ordered bounds what a run holds: no index is claimed more than
// Window(workers) past the lowest one not yet emitted, so the workers
// and the results waiting on the emitter together hold at most that
// many items, however slow the lowest one is.
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

// GoPool launches n copies of worker (a fan-out stage); i numbers the
// copy.
func (g *Group) GoPool(n int, worker func(ctx context.Context, i int) error) {
	for i := range n {
		g.Go(func(ctx context.Context) error { return worker(ctx, i) })
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
// drains and returns. Only the producing stage may call Close.
// Idempotent: error-path teardown may Close a stream its happy path
// already closed without panicking.
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
// ahead of the emitter. So at one worker one item is emitted while the
// next waits and the one after is worked on.
func Window(workers int) int { return 2*max(workers, 1) + 1 }

// Ordered is the ordered hand-off between workers and one emitting
// goroutine, for the results of indices 0..n-1. Workers claim indices
// in ascending order and file each result in a slot its claim
// reserved; the emitter hands the results on in index order. A claim
// blocks while Window(workers) indices are claimed and not yet
// emitted, so no worker runs more than the window ahead of the lowest
// index still in flight, and filing never blocks.
type Ordered[T any] struct {
	workers, n int
	drop       func(T)
	room       chan int // the indices that may be claimed, ascending
	slots      []chan T // index i is filed in slots[i%len(slots)]
}

// NewOrdered returns the hand-off for n indices worked on by workers
// goroutines (at least one). drop, if non-nil, receives every result
// worked and never emitted — the disposal hook for results that carry
// resources (pooled batches); it must not block.
func NewOrdered[T any](workers, n int, drop func(T)) *Ordered[T] {
	if drop == nil {
		drop = func(T) {}
	}
	workers = max(workers, 1)
	o := &Ordered[T]{workers: workers, n: n, drop: drop,
		slots: make([]chan T, min(Window(workers), max(n, 1)))}
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

// claim returns the next index, blocking while the window is full or
// every index is claimed. It returns false once ctx is done, even if
// an index was free.
func (o *Ordered[T]) claim(ctx context.Context) (int, bool) {
	select {
	case i := <-o.room:
		return i, ctx.Err() == nil
	case <-ctx.Done():
		return 0, false
	}
}

// emit passes the results to emit in index order until all n are
// emitted (nil), emit fails (its error) or ctx is done (its cause; no
// result is emitted once ctx is done).
func (o *Ordered[T]) emit(ctx context.Context, emit func(T) error) error {
	for i := range o.n {
		var v T
		select {
		case v = <-o.slots[i%len(o.slots)]:
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

// Run has min(workers, n) goroutines claim indices and compute
// work(ctx, worker, i) — worker numbers the goroutine, for state it
// owns, such as a trace buffer — while the calling goroutine emits the
// results in index order. The first error of work or emit, or ctx's
// end, cancels the workers and is returned; no index is claimed once
// it is. work releases what it holds when it fails; a result emit
// fails on is emit's; drop gets every other result not emitted, before
// Run returns.
func (o *Ordered[T]) Run(ctx context.Context, work func(ctx context.Context, worker, i int) (T, error), emit func(T) error) error {
	g := NewGroup(ctx)
	g.GoPool(min(o.workers, o.n), func(ctx context.Context, worker int) error {
		for {
			i, ok := o.claim(ctx)
			if !ok {
				return nil
			}
			v, err := work(ctx, worker, i)
			if err != nil {
				return err
			}
			o.slots[i%len(o.slots)] <- v // never blocks: the slot was emptied when i − window was emitted
		}
	})
	err := o.emit(g.Context(), emit)
	g.cancel(err) // stops the workers, which an emit error or the last emit leaves waiting
	if werr := g.Wait(); err == nil {
		err = werr
	}
	for _, s := range o.slots { // the workers have returned: nothing more is filed
		for len(s) > 0 {
			o.drop(<-s)
		}
	}
	return err
}
