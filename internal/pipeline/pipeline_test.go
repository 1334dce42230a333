package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

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

// Run emits every result in index order whatever order the workers
// finish in, at one worker and at several.
func TestOrderedEmitsAscending(t *testing.T) {
	const n = 500
	for _, workers := range []int{1, 2, 7} {
		var got []int
		err := NewOrdered[int](workers, n, nil).Run(context.Background(), func(_ context.Context, _, i int) (int, error) {
			if i%7 == 0 {
				time.Sleep(time.Microsecond) // jitter the completion order
			}
			return i, nil
		}, func(v int) error {
			got = append(got, v)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: emitted %d items, want %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i)
			}
		}
	}
}

// Run makes no work call once its context is done: not one under a
// context done before it starts, however free the window, and, at one
// worker, none after a cancel that lands while the window still has
// room — emit cancels while work(1) runs, and stays busy while the
// worker, done with item 1, looks for its next index.
func TestOrderedRunClaimsNothingOnceDone(t *testing.T) {
	const n = 20
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var calls atomic.Int64
		err := NewOrdered[int](workers, n, nil).Run(ctx, func(_ context.Context, _, i int) (int, error) {
			calls.Add(1)
			return i, nil
		}, func(int) error { return nil })
		if !errors.Is(err, context.Canceled) || calls.Load() != 0 {
			t.Fatalf("workers=%d: Run = %v after %d work calls under a context done before it, want context.Canceled after 0", workers, err, calls.Load())
		}
	}
	for range 20 { // a claim that raced the done context would win about half the time
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{})
		var calls int
		err := NewOrdered[int](1, n, nil).Run(ctx, func(ctx context.Context, _, i int) (int, error) {
			calls++
			if i == 1 {
				close(started)
				<-ctx.Done()
			}
			return i, nil
		}, func(v int) error {
			if v == 0 {
				<-started
				cancel()
				time.Sleep(2 * time.Millisecond)
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) || calls != 2 {
			t.Fatalf("cancelled in emit(0) during work(1): Run = %v after %d work calls, want context.Canceled after 2", err, calls)
		}
	}
}

// On an emit error, a work error and a cancel, every result work
// produced is emitted or dropped, exactly once, before Run returns,
// and Run returns that first error.
func TestOrderedDropsEveryUnemittedResultOnce(t *testing.T) {
	const n, failAt = 60, 10
	boom := errors.New("boom")
	for _, workers := range []int{1, 3} {
		for _, tc := range []struct {
			name string
			work func(cancel context.CancelFunc, i int) error
			emit func(cancel context.CancelFunc, v int) error
			want error
		}{
			{"emit", func(context.CancelFunc, int) error { return nil }, func(_ context.CancelFunc, v int) error {
				if v == failAt {
					return boom
				}
				return nil
			}, boom},
			{"work", func(_ context.CancelFunc, i int) error {
				if i == failAt {
					return boom
				}
				return nil
			}, func(context.CancelFunc, int) error { return nil }, boom},
			{"cancel", func(context.CancelFunc, int) error { return nil }, func(cancel context.CancelFunc, v int) error {
				if v == failAt {
					cancel()
				}
				return nil
			}, context.Canceled},
		} {
			ctx, cancel := context.WithCancel(context.Background())
			var mu sync.Mutex
			made, seen := map[int]bool{}, map[int]int{}
			account := func(v int) {
				mu.Lock()
				defer mu.Unlock()
				seen[v]++
			}
			err := NewOrdered[int](workers, n, account).Run(ctx, func(_ context.Context, _, i int) (int, error) {
				time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
				if err := tc.work(cancel, i); err != nil {
					return 0, err
				}
				mu.Lock()
				made[i] = true
				mu.Unlock()
				return i, nil
			}, func(v int) error {
				err := tc.emit(cancel, v)
				if err == nil {
					account(v)
				}
				return err
			})
			cancel()
			if !errors.Is(err, tc.want) {
				t.Errorf("workers=%d %s: err = %v, want %v", workers, tc.name, err, tc.want)
			}
			mu.Lock()
			for i := range made {
				want := 1
				if tc.name == "emit" && i == failAt {
					want = 0 // emit owns the result it fails on
				}
				if seen[i] != want {
					t.Errorf("workers=%d %s: result %d emitted or dropped %d times, want %d", workers, tc.name, i, seen[i], want)
				}
			}
			for v := range seen {
				if !made[v] {
					t.Errorf("workers=%d %s: result %d accounted but never made", workers, tc.name, v)
				}
			}
			if len(made) >= n {
				t.Errorf("workers=%d %s: all %d results made despite the stop at %d", workers, tc.name, len(made), failAt)
			}
			mu.Unlock()
		}
	}
}

// While item 0 is slow, the other workers run ahead only to the
// window: never more than Window(workers) items are claimed and not
// yet emitted, and the filed ones wait in pipeline_queue_depth. A
// reorder fed by a stream would have let them take all 200.
func TestOrderedBoundsSlowFirstItem(t *testing.T) {
	const n, workers = 200, 2
	window := Window(workers)
	reg := obs.NewRegistry()
	o := NewOrdered[int](workers, n, nil)
	o.Instrument(reg, "test")
	var claimed, emitted, most atomic.Int64
	release := make(chan struct{})
	go func() {
		for deadline := time.Now().Add(10 * time.Second); claimed.Load() < int64(window) && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // room for a worker that would overrun the window
		close(release)
	}()
	var depth string
	err := o.Run(context.Background(), func(_ context.Context, _, i int) (int, error) {
		held := claimed.Add(1) - emitted.Load()
		for m := most.Load(); held > m && !most.CompareAndSwap(m, held); m = most.Load() {
		}
		if i == 0 {
			<-release
			var b strings.Builder
			reg.WritePrometheus(&b)
			depth = b.String()
		}
		return i, nil
	}, func(int) error {
		emitted.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted.Load() != n {
		t.Fatalf("emitted %d items, want %d", emitted.Load(), n)
	}
	if m := most.Load(); m != int64(window) {
		t.Errorf("up to %d items claimed and not emitted, want the window, %d", m, window)
	}
	for _, want := range []string{
		fmt.Sprintf(`pipeline_queue_depth{stage="test"} %d`, window-1),
		fmt.Sprintf(`pipeline_queue_capacity{stage="test"} %d`, window),
	} {
		if !strings.Contains(depth, want) {
			t.Errorf("while item 0 was slow, want %s in:\n%s", want, depth)
		}
	}
}
