package studyd

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/sample"
	"repro/internal/world"
)

// heldBuffers is what group g holds of sample buffers: every open
// chunk's and the spare.
func heldBuffers(g *groupIngest) [][]sample.Sample {
	var held [][]sample.Sample
	for _, b := range g.buf {
		if b != nil {
			held = append(held, b)
		}
	}
	if g.spare != nil {
		held = append(held, g.spare)
	}
	return held
}

// maxGrowth bounds the capacity append leaves a buffer of n samples:
// it at most doubles the capacity it outgrew, and rounds the doubled
// size up to a size class, at most 1/8 more.
const maxGrowth = 2.25

// TestOpenBuffersBounded holds a four-day live run to the bound
// DESIGN.md §15 states: at every ingest and seal, a group holds at most
// two sample buffers, the open chunk's and one spare, and neither is
// larger than append grows for the largest chunk the group has kept.
// Nothing in the bound counts days: a chunk's buffer is the previous
// chunk's, emptied. (The feed's one window buffer a group is the third,
// held to its window's estimate by world.TestGroupBufferSizedOnce.)
func TestOpenBuffersBounded(t *testing.T) {
	cfg := world.Config{Seed: 5, Groups: 6, Days: 4, SessionsPerGroupWindow: 4}
	d := liveDaemonOf(t, t.TempDir(), cfg)
	largest := make([]int, cfg.Groups) // the longest chunk buffer each group has held
	check := func(when string, win int) {
		for gi, g := range d.groups {
			held := heldBuffers(g)
			if len(held) > 2 {
				t.Fatalf("%s window %d: group %d holds %d sample buffers, want at most 2", when, win, gi, len(held))
			}
			for _, b := range held {
				largest[gi] = max(largest[gi], len(b))
			}
			for _, b := range held {
				if float64(cap(b)) > maxGrowth*float64(largest[gi]) {
					t.Fatalf("%s window %d: group %d holds a buffer of %d for chunks of at most %d samples",
						when, win, gi, cap(b), largest[gi])
				}
			}
		}
	}
	days := 0
	err := world.NewLiveFeed(d.opt.World).Run(context.Background(), 1, func(b world.WindowBatch) error {
		if err := d.Ingest(b.Group, b.Win, b.Samples, b.Lost); err != nil {
			return err
		}
		check("ingest", b.Win)
		return nil
	}, func(win int) error {
		before := d.Version()
		if err := d.Seal(win); err != nil {
			return err
		}
		if d.Version() != before {
			days++
		}
		check("seal", win)
		return nil
	})
	if err == nil {
		err = d.Drain()
	}
	if err != nil {
		t.Fatal(err)
	}
	if days != cfg.Days {
		t.Fatalf("%d chunks committed, want %d", days, cfg.Days)
	}
	for gi, g := range d.groups {
		if held := heldBuffers(g); len(held) != 1 || len(g.spare) != 0 {
			t.Errorf("group %d drained holding %d buffers, spare of %d samples; want only an empty spare", gi, len(held), len(g.spare))
		}
	}
}

// TestDayTwoAllocatesNoSampleBuffer ingests and seals a second day into
// a daemon that has closed its first: every group's day-two chunk fills
// the buffer day one closed, so nothing up to the chunk's close
// allocates at all, and the close hands the same buffer on again. Both
// days are generated first and copied out of the feed's recycled
// buffers, so what is counted is the daemon's alone. The world is one
// whose groups keep no more samples on day two than their day-one
// buffers hold, which the test checks.
func TestDayTwoAllocatesNoSampleBuffer(t *testing.T) {
	cfg := world.Config{Seed: 5, Groups: 6, Days: 2, SessionsPerGroupWindow: 4}
	windows := make([][]world.WindowBatch, cfg.Windows())
	if err := world.NewLiveFeed(world.New(cfg)).Run(context.Background(), 1, func(b world.WindowBatch) error {
		b.Samples = append([]sample.Sample(nil), b.Samples...)
		windows[b.Win] = append(windows[b.Win], b)
		return nil
	}, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	d := liveDaemonOf(t, t.TempDir(), cfg)
	window := func(win int, seal bool) {
		for _, b := range windows[win] {
			if err := d.Ingest(b.Group, b.Win, b.Samples, b.Lost); err != nil {
				t.Fatal(err)
			}
		}
		if !seal {
			return
		}
		if err := d.Seal(win); err != nil {
			t.Fatal(err)
		}
	}
	day := world.WindowsPerDay
	for win := 0; win < day; win++ {
		window(win, true)
	}

	type buffer struct {
		first *sample.Sample // the backing array's first element: its identity
		cap   int
	}
	identity := func(b []sample.Sample) buffer { return buffer{&b[:1][0], cap(b)} }
	spares := make([]buffer, cfg.Groups)
	for gi, g := range d.groups {
		if cap(g.spare) == 0 {
			t.Fatalf("group %d has no spare after day one", gi)
		}
		spares[gi] = identity(g.spare)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for win := day; win < 2*day-1; win++ {
		window(win, true)
	}
	window(2*day-1, false)
	runtime.ReadMemStats(&after)

	for gi, g := range d.groups {
		if n := len(g.buf[1]); n > spares[gi].cap {
			t.Fatalf("group %d keeps %d samples on day two, more than its day-one buffer of %d holds: pick another world", gi, n, spares[gi].cap)
		}
		if got := identity(g.buf[1]); got != spares[gi] {
			t.Errorf("group %d: day two fills another buffer (capacity %d), not day one's (capacity %d)", gi, got.cap, spares[gi].cap)
		}
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("ingesting day two and sealing all but its last window made %d allocations, want 0", n)
	}
	if err := d.Seal(2*day - 1); err != nil {
		t.Fatal(err)
	}
	for gi, g := range d.groups {
		if got := identity(g.spare); got != spares[gi] {
			t.Errorf("group %d: day two's close spared another buffer (capacity %d), not the day's (capacity %d)", gi, got.cap, spares[gi].cap)
		}
	}
}
