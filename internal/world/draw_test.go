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
func liveDrawers() int { return liveGoroutines("created by repro/internal/world.startDrawers") }

// liveStages counts the pipeline stage goroutines still alive: a live
// feed's generators and the hook that closes their stream.
func liveStages() int { return liveGoroutines("created by repro/internal/pipeline.(*Group)") }

// liveGoroutines counts the goroutines whose stack holds frame, polled
// as liveDrawers says.
func liveGoroutines(frame string) int {
	n := 0
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		buf := make([]byte, 1<<20)
		for runtime.Stack(buf, true) == len(buf) {
			buf = make([]byte, 2*len(buf))
		}
		n = strings.Count(string(buf), frame)
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
		err := w.GenerateBatches(ctx, workers, func(Batch) error {
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
			t.Errorf("workers=%d: %d drawers left after GenerateBatches returned", workers, n)
		}
	}
}

// windowsBegun returns a world whose PoPDown hook, consulted once per
// group × window begun, counts the windows begun at each window index
// and calls at(win) first. A group begins its windows in order, so the
// highest index begun bounds every group's count of windows begun.
func windowsBegun(cfg Config, at func(win int)) (*World, []atomic.Int64) {
	w := New(cfg)
	begun := make([]atomic.Int64, cfg.Windows())
	w.PoPDown = func(_ string, win int) bool {
		at(win)
		begun[win].Add(1)
		return false
	}
	return w, begun
}

// lastBegun is the highest window index any group began, -1 for none.
func lastBegun(begun []atomic.Int64) int {
	for win := len(begun) - 1; win >= 0; win-- {
		if begun[win].Load() > 0 {
			return win
		}
	}
	return -1
}

// LiveFeed.Run stops promptly on every return — a cancel, a deliver
// error and a seal error at window 3, at one worker and at several: no
// group begins more than the windows its ring lets it run ahead of the
// last one delivered (3 + WindowsPerDay + 1, read both through PoPDown
// and the group's own count), and no generator, stream hook or drawer
// is left behind. A consumer that drained the feed before returning
// would let every group simulate to the end of the world.
func TestLiveFeedStopsDrawersOnEveryReturn(t *testing.T) {
	cfg := Config{Seed: 12, Groups: 5, Days: 3, SessionsPerGroupWindow: 4}
	const stopAt = 3
	boom := errors.New("boom")
	for _, workers := range []int{1, 3} {
		for _, tc := range []struct {
			name    string
			deliver func(cancel context.CancelFunc, b WindowBatch) error
			seal    func(win int) error
			want    error
		}{
			{"cancel", func(cancel context.CancelFunc, b WindowBatch) error {
				if b.Win == stopAt && b.Group == 2 {
					cancel()
				}
				return nil
			}, func(int) error { return nil }, context.Canceled},
			{"deliver", func(_ context.CancelFunc, b WindowBatch) error {
				if b.Win == stopAt && b.Group == 2 {
					return boom
				}
				return nil
			}, func(int) error { return nil }, boom},
			{"seal", func(context.CancelFunc, WindowBatch) error { return nil },
				func(win int) error {
					if win == stopAt {
						return boom
					}
					return nil
				}, boom},
		} {
			ctx, cancel := context.WithCancel(context.Background())
			w, begun := windowsBegun(cfg, func(int) {})
			reg := obs.NewRegistry()
			w.Instrument(reg)
			f := NewLiveFeed(w)
			err := f.Run(ctx, workers, func(b WindowBatch) error {
				return tc.deliver(cancel, b)
			}, tc.seal)
			cancel()
			if !errors.Is(err, tc.want) {
				t.Errorf("workers=%d %s: err = %v, want %v", workers, tc.name, err, tc.want)
			}
			limit := stopAt + WindowsPerDay + 1
			if last := lastBegun(begun); last+1 > limit {
				t.Errorf("workers=%d %s: a group began window %d, want at most %d windows of %d", workers, tc.name, last, limit, cfg.Windows())
			}
			for gi, fd := range f.feeds {
				if fd.next > limit {
					t.Errorf("workers=%d %s: group %d began %d windows, want at most %d", workers, tc.name, gi, fd.next, limit)
				}
			}
			if v := reg.Gauge("world_feed_batches_ahead").Value(); v != 0 {
				t.Errorf("workers=%d %s: world_feed_batches_ahead = %v after Run returned, want 0", workers, tc.name, v)
			}
			if n := liveStages(); n != 0 {
				t.Errorf("workers=%d %s: %d generator goroutines left after Run returned", workers, tc.name, n)
			}
			if n := liveDrawers(); n != 0 {
				t.Errorf("workers=%d %s: %d drawers left after Run returned", workers, tc.name, n)
			}
		}
	}
}

// The generators run at most one day ahead of the consumer: while
// deliver blocks at window 5, every group fills the rest of its ring —
// world_feed_batches_ahead reaches groups × WindowsPerDay less the
// batch deliver holds — and no group begins a window past
// 5 + WindowsPerDay. Released, the run delivers every window.
func TestLiveFeedRunsOneDayAhead(t *testing.T) {
	cfg := Config{Seed: 14, Groups: 4, Days: 3, SessionsPerGroupWindow: 3}
	const blockAt = 5
	for _, workers := range []int{1, 3} {
		w, begun := windowsBegun(cfg, func(int) {})
		reg := obs.NewRegistry()
		w.Instrument(reg)
		ahead := reg.Gauge("world_feed_batches_ahead")
		release, blocked := make(chan struct{}), make(chan struct{})
		delivered := 0
		done := make(chan error, 1)
		go func() {
			done <- NewLiveFeed(w).Run(context.Background(), workers, func(b WindowBatch) error {
				if b.Win == blockAt && b.Group == 0 {
					close(blocked)
					<-release
				}
				delivered++
				return nil
			}, func(int) error { return nil })
		}()
		<-blocked
		full := float64(cfg.Groups*WindowsPerDay - 1)
		for deadline := time.Now().Add(10 * time.Second); ahead.Value() < full && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // room for a generator that would overrun its ring
		if v := ahead.Value(); v != full {
			t.Errorf("workers=%d: %v batches ahead while deliver blocks at window %d, want %v", workers, v, blockAt, full)
		}
		if last := lastBegun(begun); last > blockAt+WindowsPerDay {
			t.Errorf("workers=%d: a group began window %d while deliver blocks at window %d, want none past %d",
				workers, last, blockAt, blockAt+WindowsPerDay)
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if delivered != cfg.Groups*cfg.Windows() {
			t.Errorf("workers=%d: %d batches delivered, want %d", workers, delivered, cfg.Groups*cfg.Windows())
		}
		if v := ahead.Value(); v != 0 {
			t.Errorf("workers=%d: world_feed_batches_ahead = %v after Run returned, want 0", workers, v)
		}
	}
}

// The feed's two metrics tell a slow feed from a slow consumer: the
// batches ahead never pass groups × WindowsPerDay and read 0 once Run
// returns, and a generator held up at one window makes deliver wait on
// an empty feed, which world_feed_wait_seconds times and closes.
func TestLiveFeedMetrics(t *testing.T) {
	cfg := Config{Seed: 15, Groups: 6, Days: 2, SessionsPerGroupWindow: 3}
	for _, workers := range []int{1, 3} {
		w, _ := windowsBegun(cfg, func(win int) {
			if win == 120 {
				time.Sleep(5 * time.Millisecond)
			}
		})
		reg := obs.NewRegistry()
		w.Instrument(reg)
		ahead := reg.Gauge("world_feed_batches_ahead")
		most := 0.0
		if err := NewLiveFeed(w).Run(context.Background(), workers, func(WindowBatch) error {
			most = max(most, ahead.Value())
			return nil
		}, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if limit := float64(cfg.Groups * WindowsPerDay); most > limit || most < 0 {
			t.Errorf("workers=%d: up to %v batches ahead, want at most %v", workers, most, limit)
		}
		if v := ahead.Value(); v != 0 {
			t.Errorf("workers=%d: world_feed_batches_ahead = %v after Run returned, want 0", workers, v)
		}
		wait := reg.Span("world_feed_wait_seconds", "world")
		if wait.Count() == 0 || wait.Total() <= 0 {
			t.Errorf("workers=%d: world_feed_wait_seconds counted %d waits of %v, want deliver to have waited", workers, wait.Count(), wait.Total())
		}
		if n := wait.Active(); n != 0 {
			t.Errorf("workers=%d: %d feed waits still open", workers, n)
		}
	}
}
