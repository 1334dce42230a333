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
//   - Reorder: a sequence-restoring stage. Workers process items in
//     whatever order the scheduler dictates, Reorder re-emits them in
//     ascending sequence order, so a sharded run's downstream fold sees
//     exactly the order the sequential run would — the property the
//     byte-identical report guarantee rests on.
//
// Stages hold only indices and batch pointers; backpressure bounds the
// number of batches in flight to roughly workers + buffer.
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
	wait      *obs.SpanTimer // Range's waits on an empty stream; nil times none
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

// TimeWaits makes Range time every receive that finds the stream empty
// as a span on t: the consumer's idle time, which says the producers
// are behind. Call it before the stream is used. A nil t times nothing.
func (s *Stream[T]) TimeWaits(t *obs.SpanTimer) { s.wait = t }

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
		var sp obs.Span
		if len(s.ch) == 0 {
			sp = s.wait.Start()
		}
		select {
		case v, ok := <-s.ch:
			sp.End()
			if !ok {
				return nil
			}
			if err := f(v); err != nil {
				return err
			}
		case <-ctx.Done():
			sp.End()
			return cause(ctx)
		}
	}
}

// Reorder consumes items from in and re-emits them in ascending
// sequence order starting at next: items may arrive in any order (a
// worker pool finishes shards as it pleases), but emit sees exactly the
// sequential order. seq must be a bijection onto next, next+1, ...;
// missing sequence numbers before a cancellation simply truncate the
// emitted prefix, which is what lets an interrupted pipeline flush a
// valid, ordered prefix of its output.
//
// The pending buffer is bounded by the producer pool's in-flight window
// (workers + stream buffer), because a worker cannot complete a far-
// ahead sequence number until Send unblocks.
func Reorder[T any](ctx context.Context, in *Stream[T], seq func(T) int, next int, emit func(T) error) error {
	return ReorderDrain(ctx, in, seq, next, emit, nil)
}

// ReorderDrain is Reorder with a disposal hook for items that were
// received but never successfully emitted: when the pipeline is
// poisoned (emit error or cancellation), drop is called for every
// pending buffered item and for everything still arriving on the
// stream until it closes; when the stream closes before a gap in the
// sequence fills (a producer stopped early), for every item held past
// the gap. Stages whose items carry resources — pooled column batches,
// file handles, a count of items in flight — use this so an error path
// releases exactly what a success path would have. drop must not
// block; a nil drop is Reorder.
func ReorderDrain[T any](ctx context.Context, in *Stream[T], seq func(T) int, next int, emit func(T) error, drop func(T)) error {
	pending := make(map[int]T)
	err := in.Range(ctx, func(v T) error {
		pending[seq(v)] = v
		for {
			w, ok := pending[next]
			if !ok {
				return nil
			}
			delete(pending, next)
			if err := emit(w); err != nil {
				return err
			}
			next++
		}
	})
	if drop == nil {
		return err
	}
	for _, v := range pending {
		drop(v)
	}
	if err != nil {
		// Items already buffered in the channel (or mid-Send) would
		// otherwise be stranded: drain until the producer side closes.
		// This cannot block forever — every producer's Send observes the
		// same poisoned context, fails, and the stage's after-hook
		// closes the stream.
		in.Drain(drop)
	}
	return err
}
