package world

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

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

// GenerateSelected must hand every selected group — and no other — to
// exactly one handler invocation, with its position in the selection
// and the same contents as the ordered path, gaps in the selection
// notwithstanding.
func TestGenerateSelectedCoverage(t *testing.T) {
	w := New(testCfg())
	want := map[int]int{} // group -> sample count
	if err := w.GenerateBatches(context.Background(), 1, func(b Batch) error {
		want[b.Group] = len(b.Samples)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	selection := []int{1, 2, 5, 9} // gapped: a resumed run's work list
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		got := map[int]int{}   // group -> sample count
		order := map[int]int{} // order -> group
		if err := New(testCfg()).GenerateSelected(context.Background(), workers, selection, func(o int, b Batch) error {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := got[b.Group]; dup {
				t.Errorf("workers=%d: group %d handled twice", workers, b.Group)
			}
			got[b.Group] = len(b.Samples)
			order[o] = b.Group
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(selection) {
			t.Fatalf("workers=%d: handled %d groups, want %d", workers, len(got), len(selection))
		}
		for o, g := range selection {
			if order[o] != g {
				t.Errorf("workers=%d: order %d carried group %d, want %d", workers, o, order[o], g)
			}
			if got[g] != want[g] {
				t.Errorf("workers=%d: group %d: %d samples, want %d", workers, g, got[g], want[g])
			}
		}
	}
}

// A group's buffer is sized once, before its first session, and the
// sessions must fit it: a batch whose capacity is not sessionCapacity
// was regrown by append. The slack is bounded too, so the estimate
// cannot pass by over-allocating. A live feed keeps a ring of
// WindowsPerDay window buffers a group: each first-day window arrives
// in a new buffer sized for its estimate (capacityFor of its mean), and
// every later window w in window w − WindowsPerDay's buffer at the same
// capacity — every day's activity curve is the same, so no later
// window needs a larger one and none was regrown by append. A group
// makes exactly min(windows, WindowsPerDay) buffers, not one a window.
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

		type window struct {
			first *sample.Sample // the buffer's first element: its identity
			cap   int
		}
		seen := make([][]window, len(w.Groups)) // each group's windows' buffers, in order
		made := make([]map[*sample.Sample]bool, len(w.Groups))
		for gi := range made {
			made[gi] = map[*sample.Sample]bool{}
		}
		if err := NewLiveFeed(w).Run(context.Background(), 2, func(b WindowBatch) error {
			got := window{&b.Samples[:1][0], cap(b.Samples)}
			made[b.Group][got.first] = true
			if b.Win < WindowsPerDay {
				if want := capacityFor(w.windowMean(w.Groups[b.Group], b.Win)); got.cap != want {
					t.Errorf("seed %d live group %d window %d: %d samples in a buffer of %d, want one sized for %d",
						cfg.Seed, b.Group, b.Win, len(b.Samples), got.cap, want)
				}
			} else if prev := seen[b.Group][b.Win-WindowsPerDay]; got != prev {
				t.Errorf("seed %d live group %d window %d: %d samples in a buffer of %d, want window %d's buffer of %d again",
					cfg.Seed, b.Group, b.Win, len(b.Samples), got.cap, b.Win-WindowsPerDay, prev.cap)
			}
			seen[b.Group] = append(seen[b.Group], got)
			return nil
		}, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		for gi, m := range made {
			if want := min(cfg.Windows(), WindowsPerDay); len(m) != want || len(seen[gi]) != cfg.Windows() {
				t.Errorf("seed %d: live group %d made %d window buffers over %d windows, want %d over %d",
					cfg.Seed, gi, len(m), len(seen[gi]), want, cfg.Windows())
			}
		}
	}
}
