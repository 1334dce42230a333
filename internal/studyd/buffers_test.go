package studyd

import (
	"context"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/seggen"
	"repro/internal/world"
)

// maxGrowth bounds the capacity append leaves a buffer of n samples:
// it at most doubles the capacity it outgrew, and rounds the doubled
// size up to a size class, at most 1/8 more.
const maxGrowth = 2.25

// TestOpenBuffersBounded holds a four-day live run to the bound
// DESIGN.md §15 states: at every ingest and seal, a group's chunk writer
// holds one sample buffer, no larger than append grows for the largest
// chunk the group has kept. Nothing in the bound counts days: every
// chunk fills the buffer the chunk before it emptied. (The feed's one
// window buffer a group is the second, held to its window's estimate by
// world.TestGroupBufferSizedOnce.) A drained daemon holds none.
func TestOpenBuffersBounded(t *testing.T) {
	cfg := world.Config{Seed: 5, Groups: 6, Days: 4, SessionsPerGroupWindow: 4}
	d := liveDaemonOf(t, t.TempDir(), cfg)
	largest := make([]int, cfg.Groups) // the longest chunk buffer each group has held
	check := func(when string, win int) {
		for gi, g := range d.groups {
			if g == nil {
				continue
			}
			b := g.Buffer()
			largest[gi] = max(largest[gi], len(b))
			if float64(cap(b)) > maxGrowth*float64(largest[gi]) {
				t.Fatalf("%s window %d: group %d holds a buffer of %d for chunks of at most %d samples",
					when, win, gi, cap(b), largest[gi])
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
	if d.groups != nil {
		t.Errorf("a drained daemon still holds %d chunk writers", len(d.groups))
	}
}

// TestDrainReleasesIngestState: a drained daemon lets its chunk writers
// go, so the heap it holds is no more than that of a daemon over the
// same spool that never ingested a window. Stats still reports the run's filter totals, the
// batch writer's. The world is dense enough that the writers' buffers
// alone would hold some megabytes past the drain (7.9 MB against 0.18
// when Drain keeps them); heapSlack is for what another test's goroutine
// may allocate between the two readings.
func TestDrainReleasesIngestState(t *testing.T) {
	const heapSlack = 64 << 10
	cfg := world.Config{Seed: 5, Groups: 6, Days: 2, SessionsPerGroupWindow: 40}
	golden, err := seggen.Run(context.Background(), seggen.Options{World: world.New(cfg), Dir: t.TempDir(), Origin: "resident-test"})
	if err != nil {
		t.Fatal(err)
	}
	inUse := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC() // the second empties what the first moved to sync.Pool's victim cache
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	// Both daemons register their metrics in one registry, so its series
	// count in neither heap reading.
	dir, reg := t.TempDir(), obs.NewRegistry()
	daemon := func() *Daemon {
		d, err := New(Options{Dir: dir, Origin: "resident-test", World: world.New(cfg), Reg: reg})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := daemon()
	if err := d.RunLive(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	drainedHeap := inUse()
	// The baseline resumes the drained spool, so it holds the same
	// manifest, and builds no writer: there is no window left to ingest.
	idle := daemon()
	st := d.Stats()
	d = nil
	idleHeap := inUse()
	runtime.KeepAlive(idle)
	if drainedHeap > idleHeap+heapSlack {
		t.Errorf("a drained daemon holds %d bytes of heap, one that never ingested %d", drainedHeap, idleHeap)
	}
	if st != golden.Stats || st.Accepted == 0 {
		t.Errorf("drained daemon's Stats = %+v, want the batch writer's %+v", st, golden.Stats)
	}
}

// TestDayTwoAllocatesNoSampleBuffer ingests and seals a second day into
// a daemon that has closed its first: every group's day-two chunk fills
// the buffer day one closed, so nothing up to the chunk's close
// allocates at all, and the close keeps the same buffer. Both
// days are generated first and copied out of the feed's recycled
// buffers, and the count waits for every other allocator in the
// process to stop (quiesceAllocs), so what is counted is the daemon's
// alone. The world is one whose groups keep no more samples on day two
// than their day-one buffers hold, which the test checks.
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
	dayOne := make([]buffer, cfg.Groups)
	for gi, g := range d.groups {
		if b := g.Buffer(); len(b) != 0 || cap(b) == 0 {
			t.Fatalf("group %d holds %d samples in a buffer of %d after day one closed, want an empty buffer", gi, len(b), cap(b))
		}
		dayOne[gi] = identity(g.Buffer())
	}

	quiesceAllocs(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for win := day; win < 2*day-1; win++ {
		window(win, true)
	}
	window(2*day-1, false)
	runtime.ReadMemStats(&after)

	for gi, g := range d.groups {
		if n := len(g.Buffer()); n > dayOne[gi].cap {
			t.Fatalf("group %d keeps %d samples on day two, more than its day-one buffer of %d holds: pick another world", gi, n, dayOne[gi].cap)
		}
		if got := identity(g.Buffer()); got != dayOne[gi] {
			t.Errorf("group %d: day two fills another buffer (capacity %d), not day one's (capacity %d)", gi, got.cap, dayOne[gi].cap)
		}
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("ingesting day two and sealing all but its last window made %d allocations, want 0", n)
	}
	if err := d.Seal(2*day - 1); err != nil {
		t.Fatal(err)
	}
	for gi, g := range d.groups {
		if got := identity(g.Buffer()); got != dayOne[gi] {
			t.Errorf("group %d: day two's close kept another buffer (capacity %d), not the day's (capacity %d)", gi, got.cap, dayOne[gi].cap)
		}
	}
}

// quiesceAllocs returns once the process-wide allocation count is the
// calling goroutine's alone, for as long as the test runs. Three things
// besides the caller allocate: a goroutine of this repository that
// another test left running, which it waits for; a collection, which
// it runs once and then turns off until the test ends; and the
// runtime's own work after a collection — the unique package's map
// cleanup (net/netip holds one such map) allocates after every cycle,
// on a goroutine the caller cannot see, and on a busy host it can run
// milliseconds late — which it waits out: the count must hold still
// for 10 ms while the caller sleeps. Each wait is bounded at ten
// seconds, and a failed wait names what kept running.
func quiesceAllocs(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		other := otherGoroutine()
		if other == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a goroutine another test left running outlived a 10 s wait:\n%s", other)
		}
		time.Sleep(time.Millisecond)
	}
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(gc) })
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	for last, since := m.Mallocs, time.Now(); time.Since(since) < 10*time.Millisecond; {
		if time.Now().After(deadline) {
			t.Fatalf("the process kept allocating for 10 s after a collection, with no other goroutine of this repository running")
		}
		time.Sleep(time.Millisecond)
		runtime.ReadMemStats(&m)
		if m.Mallocs != last {
			last, since = m.Mallocs, time.Now()
		}
	}
}

// otherGoroutine returns the stack of a goroutine other than the
// caller's that runs this repository's code, or "" if there is none.
func otherGoroutine() string {
	buf := make([]byte, 1<<20)
	for runtime.Stack(buf, true) == len(buf) {
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")[1:] { // the first is the caller's
		if strings.Contains(g, "repro/") {
			return g
		}
	}
	return ""
}
