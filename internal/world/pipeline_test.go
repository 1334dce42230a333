package world

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cartographer"
	"repro/internal/pipeline"
	"repro/internal/sample"
)

func testCfg() Config {
	return Config{Seed: 9, Groups: 10, Days: 1, SessionsPerGroupWindow: 4}
}

// The sample stream must be identical — same samples, same order — at
// every worker count. This is the generation half of the pipeline's
// byte-identical-report guarantee.
func TestGenerateBatchesDeterministicAcrossWorkers(t *testing.T) {
	collect := func(workers int) []sample.Sample {
		w := New(testCfg())
		var out []sample.Sample
		if err := w.GenerateBatches(context.Background(), workers, func(b Batch) error {
			out = append(out, b.Samples...)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	want := collect(1)
	if len(want) == 0 {
		t.Fatal("sequential generation produced no samples")
	}
	for _, workers := range []int{2, 4, 32} {
		got := collect(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d produced %d samples, sequential %d", workers, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("workers=%d sample %d differs: %+v vs %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// Batches must arrive in ascending group order even when workers finish
// out of order.
func TestGenerateBatchesOrdered(t *testing.T) {
	w := New(testCfg())
	next := 0
	if err := w.GenerateBatches(context.Background(), 4, func(b Batch) error {
		if b.Group != next {
			t.Fatalf("batch for group %d delivered, want %d", b.Group, next)
		}
		next++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if next != w.Cfg.Groups {
		t.Fatalf("delivered %d batches, want %d", next, w.Cfg.Groups)
	}
}

// A cancelled context must stop generation promptly with the cause, at
// one worker and at several.
func TestGenerateBatchesCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		w := New(testCfg())
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		err := w.GenerateBatches(ctx, workers, func(b Batch) error {
			n++
			if n == 2 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n >= w.Cfg.Groups {
			t.Fatalf("workers=%d: all %d batches delivered despite cancellation", workers, n)
		}
	}
}

// A deliver error must poison the parallel pipeline and surface as-is.
func TestGenerateBatchesDeliverErrorPoisons(t *testing.T) {
	boom := errors.New("deliver failed")
	w := New(testCfg())
	calls := 0
	err := w.GenerateBatches(context.Background(), 4, func(b Batch) error {
		calls++
		if calls == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// A group's buffer is sized once, before its first session, and the
// sessions must fit it: a batch whose capacity is not sessionCapacity
// was regrown by append. The slack is bounded too, so the estimate
// cannot pass by over-allocating. A live feed keeps a ring of
// WindowsPerDay window buffers a group, and a window's buffer is sized
// to its draw: window w arrives in window w − WindowsPerDay's buffer
// when its samples fit there, and otherwise in a new one made at
// exactly its sample count — so a first-day window's buffer holds it
// exactly, no slot is made again unless a later day's window outgrows
// it, and each slot ends at the largest window it held.
func TestGroupBufferSizedOnce(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 3, Groups: 40, Days: 2, SessionsPerGroupWindow: 12},
		{Seed: 42, Groups: 12, Days: 2, SessionsPerGroupWindow: 40},
		{Seed: 9, Groups: 30, Days: 3, SessionsPerGroupWindow: 2},
	} {
		w := New(cfg)
		used, held := 0, 0
		if err := w.GenerateBatches(context.Background(), 2, func(b Batch) error {
			if want := w.sessionCapacity(w.Groups[b.Group]); cap(b.Samples) != want {
				t.Errorf("seed %d group %d: %d samples in a buffer of %d, sized for %d", cfg.Seed, b.Group, len(b.Samples), cap(b.Samples), want)
			}
			used += len(b.Samples)
			held += cap(b.Samples)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if slack := float64(held) / float64(used); slack > 1.25 {
			t.Errorf("seed %d: buffers hold %.2fx the samples generated", cfg.Seed, slack)
		}

		type buffer struct {
			first *sample.Sample // the buffer's first element: its identity
			cap   int
		}
		type slot struct {
			buf     buffer
			largest int // the most samples a window of the slot held
		}
		slots := make([][WindowsPerDay]slot, len(w.Groups))
		remade, windows := 0, 0
		if err := NewLiveFeed(w).Run(context.Background(), 2, func(b WindowBatch) error {
			sl := &slots[b.Group][b.Win%WindowsPerDay]
			windows++
			sl.largest = max(sl.largest, len(b.Samples))
			if len(b.Samples) > sl.buf.cap {
				if cap(b.Samples) != len(b.Samples) {
					t.Errorf("seed %d live group %d window %d: %d samples in a new buffer of %d, want one made at the draw",
						cfg.Seed, b.Group, b.Win, len(b.Samples), cap(b.Samples))
				}
				if sl.buf.cap > 0 {
					remade++
				}
				sl.buf = buffer{&b.Samples[:1][0], cap(b.Samples)}
				return nil
			}
			if sl.buf.cap == 0 {
				return nil // an empty window and a slot never made
			}
			if got := (buffer{&b.Samples[:1][0], cap(b.Samples)}); got != sl.buf {
				t.Errorf("seed %d live group %d window %d: %d samples in a buffer of %d, want window %d's buffer of %d again",
					cfg.Seed, b.Group, b.Win, len(b.Samples), got.cap, b.Win-WindowsPerDay, sl.buf.cap)
			}
			return nil
		}, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if want := len(w.Groups) * cfg.Windows(); windows != want {
			t.Errorf("seed %d: %d live windows delivered, want %d", cfg.Seed, windows, want)
		}
		for gi := range slots {
			for si, sl := range slots[gi] {
				if sl.buf.cap != sl.largest {
					t.Errorf("seed %d live group %d slot %d: a buffer of %d, want the largest window it held, %d", cfg.Seed, gi, si, sl.buf.cap, sl.largest)
				}
			}
		}
		if remade == 0 {
			t.Errorf("seed %d: no later day's window outgrew its slot over %d days; the test shows nothing", cfg.Seed, cfg.Days)
		}
	}
}

// heldGroupZero returns cfg's world with group 0's first window held
// until release is closed, counting every window begun through the
// windowsBegun hook: the world is chosen so that no other group is
// served from group 0's PoP at window 0, which picks group 0 out.
func heldGroupZero(t *testing.T, cfg Config, release <-chan struct{}) (*World, []atomic.Int64) {
	t.Helper()
	w, begun := windowsBegun(cfg, func(int) {})
	pop0 := w.Groups[0].PoP
	for gi, g := range w.Groups[1:] {
		if g.PoP == pop0 || len(g.PoPSchedule) > 1 && cartographer.PoPAt(g.PoPSchedule, 0).Name == pop0 {
			t.Fatalf("group %d shares group 0's PoP %s at window 0: pick another world", gi+1, pop0)
		}
	}
	count := w.PoPDown
	w.PoPDown = func(pop string, win int) bool {
		if win == 0 && pop == pop0 {
			<-release
		}
		return count(pop, win)
	}
	return w, begun
}

// No group begins more than pipeline.Window(workers) groups past the
// lowest one not yet delivered: while group 0's first window is held,
// the other workers simulate the window's other groups and stop, where
// a reorder behind a stream would let them simulate every group.
// Released, every group is delivered, in order.
func TestGenerateBatchesBoundedBySlowGroup(t *testing.T) {
	cfg := Config{Seed: 6, Groups: 24, Days: 1, SessionsPerGroupWindow: 2}
	const workers = 3
	release := make(chan struct{})
	w, begun := heldGroupZero(t, cfg, release)
	var delivered atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- w.GenerateBatches(context.Background(), workers, func(b Batch) error {
			if int64(b.Group) != delivered.Load() {
				t.Errorf("group %d delivered after %d groups", b.Group, delivered.Load())
			}
			delivered.Add(1)
			return nil
		})
	}()
	want := int64(pipeline.Window(workers) - 1) // every group in the window but the held one
	for deadline := time.Now().Add(10 * time.Second); begun[0].Load() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room for a worker that would overrun the window
	if got := begun[0].Load(); got != want || delivered.Load() != 0 {
		t.Errorf("with group 0 held, %d other groups began and %d were delivered, want %d and 0", got, delivered.Load(), want)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := delivered.Load(); n != int64(cfg.Groups) {
		t.Errorf("%d groups delivered, want %d", n, cfg.Groups)
	}
}
