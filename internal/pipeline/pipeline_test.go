package pipeline

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// A worker-pool fan-out through a Stream and a Reorder stage must
// deliver every item in sequence order regardless of scheduling.
func TestReorderRestoresSequence(t *testing.T) {
	const n = 500
	g := NewGroup(context.Background())
	out := NewStream[int](4)

	idx := make(chan int, n)
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)

	g.GoPool(8, func(ctx context.Context, _ int) error {
		for i := range idx {
			if i%7 == 0 {
				time.Sleep(time.Microsecond) // jitter the completion order
			}
			if err := out.Send(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}, out.Close)

	var got []int
	g.Go(func(ctx context.Context) error {
		return Reorder(ctx, out, func(v int) int { return v }, 0, func(v int) error {
			got = append(got, v)
			return nil
		})
	})
	if err := g.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if len(got) != n {
		t.Fatalf("emitted %d items, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i)
		}
	}
}

// The first stage error must poison the whole group: blocked senders
// unblock with the cause, and Wait reports the original error.
func TestGroupPoisoning(t *testing.T) {
	boom := errors.New("sink failed")
	g := NewGroup(context.Background())
	s := NewStream[int](1)

	sendErr := make(chan error, 1)
	g.Go(func(ctx context.Context) error {
		for i := 0; ; i++ {
			if err := s.Send(ctx, i); err != nil {
				sendErr <- err
				return err
			}
		}
	})
	g.Go(func(ctx context.Context) error {
		return boom // consumer dies immediately; producer is blocked
	})
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want %v", err, boom)
	}
	select {
	case err := <-sendErr:
		if !errors.Is(err, boom) {
			t.Fatalf("Send unblocked with %v, want the poisoning cause %v", err, boom)
		}
	default:
		t.Fatal("producer never unblocked")
	}
}

// Cancelling the parent context must stop a Range consumer and surface
// context.Canceled from Wait.
func TestGroupParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGroup(ctx)
	s := NewStream[int](1)
	started := make(chan struct{})
	g.Go(func(ctx context.Context) error {
		close(started)
		return s.Range(ctx, func(int) error { return nil })
	})
	<-started
	cancel()
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
}

// Reorder must emit only the contiguous prefix when the stream closes
// with holes (an interrupted producer pool), and ReorderDrain hands
// every item held past the hole to drop, so what they carry is
// released.
func TestReorderTruncatesAtHole(t *testing.T) {
	g := NewGroup(context.Background())
	s := NewStream[int](8)
	for _, v := range []int{1, 0, 2, 4, 5} { // 3 is missing
		if err := s.Send(context.Background(), v); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	var got []int
	dropped := map[int]bool{}
	g.Go(func(ctx context.Context) error {
		return ReorderDrain(ctx, s, func(v int) int { return v }, 0, func(v int) error {
			got = append(got, v)
			return nil
		}, func(v int) { dropped[v] = true })
	})
	if err := g.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("got %v, want the contiguous prefix [0 1 2]", got)
	}
	if len(dropped) != 2 || !dropped[4] || !dropped[5] {
		t.Fatalf("dropped %v, want the items past the hole, 4 and 5", dropped)
	}
}

// TimeWaits times a receive that finds the stream empty, and only
// that: items already queued are taken without a span.
func TestStreamTimeWaits(t *testing.T) {
	wait := obs.NewRegistry().Span("wait", "")
	s := NewStream[int](4)
	s.TimeWaits(wait)
	for i := range 3 {
		if err := s.Send(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	err := s.Range(context.Background(), func(int) error {
		if n++; n == 3 {
			if c := wait.Count(); c != 0 {
				t.Errorf("%d waits timed for queued items, want 0", c)
			}
			go func() {
				time.Sleep(5 * time.Millisecond)
				s.Close()
			}()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c, d := wait.Count(), wait.Total(); c != 1 || d < 5*time.Millisecond || wait.Active() != 0 {
		t.Fatalf("%d waits of %v (%d open), want the one wait for the close, at least 5ms", c, d, wait.Active())
	}
}

// Backpressure: with a buffer of 1 and no consumer, the second Send
// must block until the pipeline is poisoned.
func TestStreamBackpressure(t *testing.T) {
	g := NewGroup(context.Background())
	s := NewStream[int](1)
	var sent atomic.Int64
	g.Go(func(ctx context.Context) error {
		for i := 0; i < 10; i++ {
			if err := s.Send(ctx, i); err != nil {
				return nil // poisoned as expected
			}
			sent.Add(1)
		}
		return errors.New("all sends completed without a consumer")
	})
	time.Sleep(10 * time.Millisecond)
	if n := sent.Load(); n != 1 {
		t.Fatalf("%d sends completed with a full buffer, want 1", n)
	}
	g.Go(func(ctx context.Context) error { return errors.New("stop") })
	if err := g.Wait(); err == nil || err.Error() != "stop" {
		t.Fatalf("Wait = %v, want the injected stop error", err)
	}
}

func TestStreamInstrumentQueueDepth(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewStream[int](4)
	s.Instrument(reg, "test")
	for i := 0; i < 3; i++ {
		if err := s.Send(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	txt := b.String()
	if !strings.Contains(txt, `pipeline_queue_depth{stage="test"} 3`) {
		t.Fatalf("queue depth gauge missing or wrong:\n%s", txt)
	}
	if !strings.Contains(txt, `pipeline_queue_capacity{stage="test"} 4`) {
		t.Fatalf("queue capacity gauge missing or wrong:\n%s", txt)
	}
}

// Close must be idempotent: error-path teardown often closes a stream
// its happy path already closed, and that must not panic.
func TestStreamCloseIdempotent(t *testing.T) {
	s := NewStream[int](1)
	s.Close()
	s.Close() // second close: regression for double-close panic
	if err := s.Range(context.Background(), func(int) error {
		return errors.New("closed stream delivered an item")
	}); err != nil {
		t.Fatalf("Range after double Close: %v", err)
	}
}
