package world

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/sample"
)

func testCfg() Config {
	return Config{Seed: 9, Groups: 10, Days: 1, SessionsPerGroupWindow: 4}
}

// groupStreams runs GenerateBatchesOf over groups at workers and returns
// each group's samples, its days joined in day order, and the (group,
// day) order they arrived in. It fails t unless each group's days
// arrive in day order, every one of them once.
func groupStreams(t *testing.T, w *World, groups []int, workers int) ([][]sample.Sample, [][2]int) {
	t.Helper()
	streams := make([][]sample.Sample, len(w.Groups))
	next := make([]int, len(w.Groups))
	var order [][2]int
	if err := w.GenerateBatchesOf(context.Background(), groups, workers, func(b Batch) error {
		if b.Day != next[b.Group] {
			return fmt.Errorf("group %d's day %d arrived after %d of its days", b.Group, b.Day, next[b.Group])
		}
		next[b.Group]++
		streams[b.Group] = append(streams[b.Group], b.Samples...)
		order = append(order, [2]int{b.Group, b.Day})
		return nil
	}); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	for _, gi := range groups {
		if next[gi] != w.Cfg.Days {
			t.Fatalf("workers=%d: %d of group %d's %d days delivered", workers, next[gi], gi, w.Cfg.Days)
		}
	}
	return streams, order
}

// Each group's sample stream must be identical — same samples, same
// order — at every worker count, whatever order the groups finish in:
// the generation half of the pipeline's byte-identical-report
// guarantee. At one worker the days arrive in the canonical (group,
// day) order, which is GenerateAll's.
func TestGenerateBatchesDeterministicAcrossWorkers(t *testing.T) {
	cfg := testCfg()
	cfg.Days = 2
	all := make([]int, cfg.Groups)
	for gi := range all {
		all[gi] = gi
	}
	want, _ := groupStreams(t, New(cfg), all, 1)
	var joined []sample.Sample
	for _, ss := range want {
		joined = append(joined, ss...)
	}
	if len(joined) == 0 {
		t.Fatal("sequential generation produced no samples")
	}
	if !reflect.DeepEqual(New(cfg).GenerateAll(), joined) {
		t.Fatal("GenerateAll differs from the one-worker stream in group order")
	}
	for _, workers := range []int{2, 4, 32} {
		got, _ := groupStreams(t, New(cfg), all, workers)
		for gi := range got {
			if !reflect.DeepEqual(got[gi], want[gi]) {
				t.Fatalf("workers=%d: group %d's %d samples differ from the sequential %d", workers, gi, len(got[gi]), len(want[gi]))
			}
		}
	}
}

// At one worker the days arrive group by group in the order given, each
// group's in day order; at several, each group's days still arrive in
// day order, groups in the order they finish.
func TestGenerateBatchesOrdered(t *testing.T) {
	cfg := testCfg()
	cfg.Days = 2
	reversed := make([]int, cfg.Groups)
	for i := range reversed {
		reversed[i] = cfg.Groups - 1 - i
	}
	_, order := groupStreams(t, New(cfg), reversed, 1)
	for i, at := range order {
		if want := [2]int{reversed[i/cfg.Days], i % cfg.Days}; at != want {
			t.Fatalf("one worker: delivery %d was group %d day %d, want group %d day %d", i, at[0], at[1], want[0], want[1])
		}
	}
	groupStreams(t, New(cfg), reversed, 4)
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

// A day's buffer is sized once, for the day's windows, before its first
// session, and the sessions must fit it: a batch whose capacity is not
// dayCapacity was regrown by append. The slack is bounded too, so the
// estimate cannot pass by over-allocating. A live feed keeps a ring of
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
			if want := w.dayCapacity(w.Groups[b.Group], b.Day); cap(b.Samples) != want {
				t.Errorf("seed %d group %d day %d: %d samples in a buffer of %d, sized for %d", cfg.Seed, b.Group, b.Day, len(b.Samples), cap(b.Samples), want)
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

// No day begins more than the stream's window, and one day a worker,
// past the last one deliver took: while deliver holds the first day, the
// workers simulate on — day after day, and on to groups of their own
// once theirs are done — until, besides the held day,
// pipeline.Window(workers) days wait in the stream and each worker has
// finished one more, and stop there. Released, every day is delivered,
// each group's in day order.
func TestGenerateBatchesBoundedBySlowGroup(t *testing.T) {
	cfg := Config{Seed: 6, Groups: 24, Days: 2, SessionsPerGroupWindow: 2}
	const workers = 3
	w, begun := windowsBegun(cfg, func(int) {})
	daysBegun := func() int64 {
		n := int64(0)
		for day := range cfg.Days {
			n += begun[day*WindowsPerDay].Load()
		}
		return n
	}
	release := make(chan struct{})
	next := make([]int, cfg.Groups)
	delivered := 0
	done := make(chan error, 1)
	go func() {
		done <- w.GenerateBatches(context.Background(), workers, func(b Batch) error {
			if delivered++; delivered == 1 {
				<-release
			}
			if b.Day != next[b.Group] {
				return fmt.Errorf("group %d's day %d arrived after %d of its days", b.Group, b.Day, next[b.Group])
			}
			next[b.Group]++
			return nil
		})
	}()
	want := int64(1 + pipeline.Window(workers) + workers)
	for deadline := time.Now().Add(10 * time.Second); daysBegun() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room for a worker that would overrun the window
	if got := daysBegun(); got != want {
		t.Errorf("with the first day held in deliver, %d days began, want %d: it, the window's %d and one a worker",
			got, want, pipeline.Window(workers))
	}
	if groups := begun[0].Load(); groups <= workers {
		t.Errorf("with the first day held in deliver, %d groups began: the workers did not go on to groups of their own", groups)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if want := cfg.Groups * cfg.Days; delivered != want {
		t.Errorf("%d days delivered, want %d", delivered, want)
	}
}
