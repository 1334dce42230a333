package world

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/workload"
)

// liveDrawers counts the draw-ahead goroutines still alive. A stopped
// drawer has returned from its last call before stop returns, but its
// goroutine may linger an instant longer, so the count is polled for
// up to a second; a drawer that never stopped stays.
func liveDrawers() int {
	n := 0
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		buf := make([]byte, 1<<20)
		for runtime.Stack(buf, true) == len(buf) {
			buf = make([]byte, 2*len(buf))
		}
		n = strings.Count(string(buf), "created by repro/internal/world.startDrawers")
		if n == 0 || time.Now().After(deadline) {
			return n
		}
	}
}

// The ring hands out the workload stream's specs in draw order, across
// chunk boundaries and across its drawer being stopped and restarted
// (as a live feed's drawers are on every return from Run): nothing drawn
// ahead is lost or repeated.
func TestDrawAheadRingKeepsDrawOrder(t *testing.T) {
	want := workload.NewGenerator(rng.New(4), workload.Config{})
	rg := newSpecRing(workload.NewGenerator(rng.New(4), workload.Config{}))
	var o worldObs
	for round := 0; round < 3; round++ {
		stop := startDrawers(context.Background(), &o, rg)
		for i := 0; i < ringChunks*chunkSpecs+chunkSpecs/2; i++ {
			d, err := rg.next(context.Background(), &o)
			if err != nil {
				t.Fatal(err)
			}
			w := want.Session()
			if d.spec.Proto != w.Proto || d.spec.Duration != w.Duration || len(d.spec.Txns) != len(w.Txns) ||
				d.bytes != w.TotalBytes() || len(d.resp) != len(want.RecordedResponses(w)) {
				t.Fatalf("round %d spec %d: %+v, want %+v", round, i, d.spec, w)
			}
			for j := range w.Txns {
				if d.spec.Txns[j] != w.Txns[j] {
					t.Fatalf("round %d spec %d txn %d: %+v, want %+v", round, i, j, d.spec.Txns[j], w.Txns[j])
				}
			}
		}
		stop()
	}
}

// What a one-worker run draws ahead and never simulates is at most one
// ring per group, and the draw stage's metrics are on /metrics: its busy
// time, the simulation's waits on an empty ring, and the specs drawn.
func TestDrawAheadWasteBounded(t *testing.T) {
	cfg := Config{Seed: 6, Groups: 9, Days: 1, SessionsPerGroupWindow: 6}
	check := func(name string, reg *obs.Registry, simulated int) {
		t.Helper()
		drawn := int(reg.Counter("world_specs_drawn_total").Value())
		if waste, limit := drawn-simulated, cfg.Groups*ringChunks*chunkSpecs; waste < 0 || waste > limit {
			t.Errorf("%s: %d specs drawn for %d sessions simulated: waste %d, bound %d", name, drawn, simulated, waste, limit)
		}
		if n := reg.Span(obs.L("world_stage_seconds", "stage", "draw"), "world").Count(); n*chunkSpecs != int64(drawn) {
			t.Errorf("%s: %d draw spans for %d specs drawn, want one per chunk of %d", name, n, drawn, chunkSpecs)
		}
		if active := reg.Span("world_draw_wait_seconds", "world").Active(); active != 0 {
			t.Errorf("%s: %d draw waits still open", name, active)
		}
	}

	reg := obs.NewRegistry()
	w := New(cfg)
	w.Instrument(reg)
	simulated := 0
	if err := w.GenerateBatches(context.Background(), 1, func(b Batch) error {
		simulated += len(b.Samples) + b.Lost
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	check("batch", reg, simulated)

	reg = obs.NewRegistry()
	w = New(cfg)
	w.Instrument(reg)
	simulated = 0
	if err := NewLiveFeed(w).Run(context.Background(), 1, func(b WindowBatch) error {
		simulated += len(b.Samples) + b.Lost
		return nil
	}, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	check("live", reg, simulated)
	if n := liveDrawers(); n != 0 {
		t.Errorf("%d drawers left after the runs", n)
	}
}

// cancelAtWindow returns a world whose PoPDown hook, consulted once per
// group × window, cancels ctx at the given window of a group: a cancel
// that lands mid-group. calls counts the windows begun, on every worker.
func cancelAtWindow(cfg Config, win int, cancel context.CancelFunc) (*World, *atomic.Int64) {
	w := New(cfg)
	var calls atomic.Int64
	w.PoPDown = func(_ string, wi int) bool {
		calls.Add(1)
		if wi == win {
			cancel()
		}
		return false
	}
	return w, &calls
}

// A cancel inside a group stops it at its next window with the cause,
// instead of simulating the group to its end, and leaves no drawer
// behind, at one worker and at several.
func TestCancelMidGroupStopsAtNextWindow(t *testing.T) {
	cfg := Config{Seed: 8, Groups: 3, Days: 2, SessionsPerGroupWindow: 10}
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancelCause(context.Background())
		stopAt := errors.New("stop mid-group")
		w, calls := cancelAtWindow(cfg, 20, func() { cancel(stopAt) })
		var handled atomic.Int64
		err := w.GenerateSelected(ctx, workers, []int{0, 1, 2}, func(int, Batch) error {
			handled.Add(1)
			return nil
		})
		if !errors.Is(err, stopAt) {
			t.Fatalf("workers=%d: err = %v, want the cancel's cause", workers, err)
		}
		if n := handled.Load(); n != 0 {
			t.Errorf("workers=%d: %d cancelled groups handed on", workers, n)
		}
		// Each group being simulated begins at most the window after
		// the cancel's.
		if n, limit := calls.Load(), int64(workers*21); n > limit {
			t.Errorf("workers=%d: %d windows begun, want at most %d of %d", workers, n, limit, cfg.Groups*cfg.Days*WindowsPerDay)
		}
		if n := liveDrawers(); n != 0 {
			t.Errorf("workers=%d: %d drawers left after GenerateSelected returned", workers, n)
		}
	}
}

// LiveFeed.Run stops every group's drawer on every return: a cancel, a
// deliver error and a seal error, at one worker and at several.
func TestLiveFeedStopsDrawersOnEveryReturn(t *testing.T) {
	cfg := Config{Seed: 12, Groups: 5, Days: 1, SessionsPerGroupWindow: 4}
	boom := errors.New("boom")
	for _, workers := range []int{1, 3} {
		for _, tc := range []struct {
			name    string
			deliver func(cancel context.CancelFunc, b WindowBatch) error
			seal    func(win int) error
			want    error
		}{
			{"cancel", func(cancel context.CancelFunc, b WindowBatch) error {
				if b.Win == 3 && b.Group == 2 {
					cancel()
				}
				return nil
			}, func(int) error { return nil }, context.Canceled},
			{"deliver", func(_ context.CancelFunc, b WindowBatch) error {
				if b.Win == 3 && b.Group == 2 {
					return boom
				}
				return nil
			}, func(int) error { return nil }, boom},
			{"seal", func(context.CancelFunc, WindowBatch) error { return nil },
				func(win int) error {
					if win == 3 {
						return boom
					}
					return nil
				}, boom},
		} {
			ctx, cancel := context.WithCancel(context.Background())
			err := NewLiveFeed(New(cfg)).Run(ctx, workers, func(b WindowBatch) error {
				return tc.deliver(cancel, b)
			}, tc.seal)
			cancel()
			if !errors.Is(err, tc.want) {
				t.Errorf("workers=%d %s: err = %v, want %v", workers, tc.name, err, tc.want)
			}
			if n := liveDrawers(); n != 0 {
				t.Errorf("workers=%d %s: %d drawers left after Run returned", workers, tc.name, n)
			}
		}
	}
}
