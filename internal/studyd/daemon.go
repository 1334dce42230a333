// Package studyd is the always-on study service: a long-running
// daemon that ingests a continuous sample stream, buffers open
// 15-minute windows per group, seals each window the moment its
// logical close passes, appends sealed data to an at-rest segstore
// spool, and serves reports and group/window queries over HTTP behind
// a stale-while-revalidate response cache.
//
// The paper's measurement system is continuous (§3.3): windows seal
// as traffic flows, not as a batch job. This package reproduces that
// shape while keeping the repo's determinism contract: sealing keys
// on the run's logical clock (the window index), never wall time, so
// a daemon run over a generated world drains into a spool that is
// byte-identical to the dataset `edgesim` writes for the
// same flags — and therefore `edgereport` over the daemon's at-rest
// segments reproduces the golden batch report exactly. The e2e tests
// and the studyd cells of cmd/edgeident pin that invariant at several
// worker counts, including under an ingest fault plan.
//
// Each world group's samples go through seggen.GroupWriter, the chunk
// writer the batch dataset writer drives too, so the fault surfaces are
// the batch writer's, under every plan: PoP outages suppress windows at
// the source, a batch fate drops a group or cuts the windows from its
// cut on (tombstoning a dropped group's chunks), and write faults retry
// with backoff and tombstone on exhaustion — chaos degrades coverage
// instead of killing the daemon. What streaming changes is only when
// things happen: a group's writer, and with it its batch fate, is made
// at its first window, each commit lands one chunk of every group, and
// the batch fates are booked at drain, when what they cut is known.
package studyd

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/seggen"
	"repro/internal/segstore"
	"repro/internal/study"
	"repro/internal/trace"
	"repro/internal/world"
)

// windowsPerChunk is how many sealed windows close one segment-span
// chunk (96: a 24h segment span over 15-minute windows).
const windowsPerChunk = int(segstore.DefaultSegmentSpan / world.WindowDuration)

// Options configures one daemon.
type Options struct {
	// Dir is the at-rest segment spool (created or resumed in live
	// mode; in wire mode the ship merger owns the writer and the
	// daemon only reads).
	Dir string
	// Origin pins the spool identity (segstore.Create semantics).
	Origin string
	// World is the live-mode ingest source; nil in wire mode.
	World *world.World
	// Reg receives daemon metrics (may be nil).
	Reg *obs.Registry
	// Injector injects deterministic ingest faults (may be nil).
	Injector *faults.Injector
	// FailFast aborts ingest on the first unrecoverable fault instead
	// of tombstoning and degrading.
	FailFast bool
	// Rec records the run's deterministic flight trace (may be nil).
	Rec *trace.Recorder
}

// windowStat is one window's ingest health, surfaced by /windows.
type windowStat struct {
	Ingested int  `json:"ingested"`
	Lost     int  `json:"lost,omitempty"`
	Late     int  `json:"late,omitempty"`
	Sealed   bool `json:"sealed"`
}

// commit is one spool version and when the commit that made it
// returned; the zero time marks a version no commit of this process
// made (the spool as found at start).
type commit struct {
	version int64
	at      time.Time
}

// Daemon is the always-on study service. Ingest, Seal, and Drain form
// the single-goroutine ingest side (the live driver calls them in
// window order); the HTTP side reads the on-disk spool, atomic counters
// and — behind its own lock — the resident study of that spool, never
// anything the ingest side writes, so serving never blocks sealing.
type Daemon struct {
	opt   Options
	cpg   int
	sw    *segstore.Writer
	tb    *trace.Buf
	guard *faults.Guard

	// groups are the world groups' chunk writers, each made at its
	// group's first window and all let go at Drain, which keeps their
	// filter totals in stats.
	groups []*seggen.GroupWriter
	stats  collector.Stats
	// ctx is the context of the run driving ingest, so that a cancel
	// reaches the write retries mid-backoff: RunLive's, or Background for
	// a caller that calls Ingest and Seal itself.
	ctx context.Context

	mu       sync.Mutex // guards winStats (ingest writes, HTTP snapshots)
	winStats []windowStat

	watermark atomic.Int64
	head      atomic.Pointer[commit] // the spool's current version
	fresh     atomic.Int64           // the newest version a render has served
	drained   atomic.Bool

	cache *swrCache

	// resident is the study behind the unfiltered /report, kept open for
	// the daemon's life so that a commit costs the scan and fold of what
	// it committed and the comparison of the windows that closed with it
	// (studyd_revalidate_points_compared counts them). Everything it
	// hands out aliases its state, so it is advanced, analysed and
	// rendered under residentMu (http.go). What it holds is O(cells) plus
	// a point a compared window — the peak of one from-nothing report, but
	// held — and the studyd_fold_* gauges say how much.
	residentMu sync.Mutex
	resident   *study.Segments

	cIngested *obs.Counter
	cLate     *obs.Counter
	cSealed   *obs.Counter
	cSegs     *obs.Counter
	cTombs    *obs.Counter
	gMark     *obs.Gauge
	gVersion  *obs.Gauge
	gDrained  *obs.Gauge

	hExtend   *obs.Histogram
	hRebuild  *obs.Histogram
	hFresh    *obs.Histogram
	hCommit   *obs.Histogram
	gServed   *obs.Gauge
	gFoldSegs *obs.Gauge
	gCells    *obs.Gauge
	gCompared *obs.Gauge
	gFolds    *obs.Gauge

	// foldSlot admits the one cold filtered fold that may run at a time,
	// and foldTickets the foldQueue requests that may wait for it
	// (http.go: admitFold).
	foldSlot      chan struct{}
	foldTickets   chan struct{}
	gFoldQueue    *obs.Gauge
	cFoldRejected *obs.Counter
}

// New builds a daemon over opt.Dir. In live mode (opt.World set) the
// spool writer is created or resumed, and each group's chunk writer is
// made at the group's first window; in wire mode the daemon only
// serves, and the ship merger feeding the spool bumps the version
// through BumpVersion.
func New(opt Options) (*Daemon, error) {
	d := &Daemon{opt: opt, guard: faults.NewGuard(opt.Injector, opt.FailFast), tb: opt.Rec.Buf(), ctx: context.Background()}
	d.head.Store(&commit{})
	reg := opt.Reg
	d.cIngested = reg.Counter("studyd_samples_ingested_total")
	d.cLate = reg.Counter("studyd_late_samples")
	d.cSealed = reg.Counter("studyd_windows_sealed_total")
	d.cSegs = reg.Counter("studyd_segments_committed_total")
	d.cTombs = reg.Counter("studyd_tombstones_total")
	d.gMark = reg.Gauge("studyd_watermark")
	d.gVersion = reg.Gauge("studyd_version")
	d.gDrained = reg.Gauge("studyd_drained")
	d.hExtend = reg.Histogram(obs.L("studyd_revalidate_seconds", "mode", "extend"), nil)
	d.hRebuild = reg.Histogram(obs.L("studyd_revalidate_seconds", "mode", "rebuild"), nil)
	d.hFresh = reg.Histogram("studyd_seal_to_fresh_seconds", nil)
	d.hCommit = reg.Histogram("studyd_seal_commit_seconds", nil)
	d.gServed = reg.Gauge("studyd_served_version")
	d.gFoldSegs = reg.Gauge("studyd_fold_segments")
	d.gCells = reg.Gauge("studyd_fold_cells")
	d.gCompared = reg.Gauge("studyd_revalidate_points_compared")
	d.gFolds = reg.Gauge("studyd_folds_inflight")
	d.foldSlot = make(chan struct{}, 1)
	d.foldTickets = make(chan struct{}, foldQueue)
	d.gFoldQueue = reg.Gauge("studyd_fold_queue_depth")
	d.cFoldRejected = reg.Counter("studyd_fold_rejected_total")
	d.cache = newSWRCache(cacheEntries, reg)
	d.resident = study.OpenSegments(opt.Dir, study.Options{Workers: 1})

	opt.Injector.Instrument(reg)

	if opt.World == nil {
		return d, nil // wire mode: the merger owns the writer
	}
	d.cpg = seggen.ChunksPerGroup(opt.World.Cfg)
	sw, err := segstore.Create(opt.Dir, opt.Origin)
	if err != nil {
		return nil, err
	}
	// Publish the manifest before any window lands: a fresh daemon
	// interrupted before its first chunk resumes instead of starting
	// from a bare directory (same move as the batch writer's).
	if err := sw.Commit(); err != nil {
		return nil, err
	}
	d.sw = sw
	d.winStats = make([]windowStat, opt.World.Cfg.Windows())
	d.groups = make([]*seggen.GroupWriter, len(opt.World.Groups))
	return d, nil
}

// Watermark returns the number of sealed windows: every window below
// it is immutable.
func (d *Daemon) Watermark() int { return int(d.watermark.Load()) }

// Version returns the spool commit counter — the cache's freshness
// token. It bumps on every manifest commit, so a cached report built
// at version v is fresh exactly until the spool changes.
func (d *Daemon) Version() int64 { return d.head.Load().version }

// BumpVersion invalidates cached reports; the wire-mode merge hook.
// It stamps the new version with the time, which the first render
// served at that version reads (servedFresh).
func (d *Daemon) BumpVersion() {
	for {
		cur := d.head.Load()
		next := &commit{version: cur.version + 1, at: time.Now()}
		if d.head.CompareAndSwap(cur, next) {
			d.gVersion.Set(float64(next.version))
			return
		}
	}
}

// servedFresh records a render built at c's version: the first one
// observes studyd_seal_to_fresh_seconds, the time from the commit that
// made the version to a report that serves it.
func (d *Daemon) servedFresh(c *commit) {
	if c.at.IsZero() {
		return
	}
	for {
		seen := d.fresh.Load()
		if seen >= c.version {
			return
		}
		if d.fresh.CompareAndSwap(seen, c.version) {
			d.hFresh.ObserveDuration(time.Since(c.at))
			return
		}
	}
}

// Drained reports whether the ingest stream has fully drained.
func (d *Daemon) Drained() bool { return d.drained.Load() }

// SetDrained marks the ingest stream complete (wire mode, where the
// merger's done handshake is the drain signal).
func (d *Daemon) SetDrained() {
	d.drained.Store(true)
	d.gDrained.Set(1)
}

// Coverage snapshots the degradation ledger (nil without an injector).
func (d *Daemon) Coverage() *faults.Coverage { return d.guard.Coverage() }

// Stats merges the groups' filter totals. Call it from the ingest
// goroutine, or once that is done.
func (d *Daemon) Stats() collector.Stats {
	total := d.stats
	for _, g := range d.groups {
		if g != nil {
			total = total.Merge(g.Stats())
		}
	}
	return total
}

// Ingest feeds one group × window batch into the group's chunk writer.
// lost counts sessions a PoP outage suppressed at the source. Each
// sample buckets by its own window (Start / 15min — a sample exactly
// on a window edge belongs to the later window); samples whose window
// is already sealed are counted in studyd_late_samples and dropped,
// because a sealed window is immutable. Ingest, Seal, and Drain must
// be called from one goroutine, in window order.
func (d *Daemon) Ingest(gi, win int, samples []sample.Sample, lost int) error {
	if d.sw == nil {
		return fmt.Errorf("studyd: ingest on a wire-mode daemon (no live world)")
	}
	if lost > 0 {
		d.guard.Outage(lost)
		d.mu.Lock()
		if win >= 0 && win < len(d.winStats) {
			d.winStats[win].Lost += lost
		}
		d.mu.Unlock()
	}
	g := d.groups[gi]
	if g == nil {
		var err error
		if g, err = seggen.NewGroupWriter(d.opt.World.Cfg, gi, d.guard, d.opt.Reg); err != nil {
			return err
		}
		d.groups[gi] = g
	}

	mark := int(d.watermark.Load())
	isLate := func(s sample.Sample) bool { return int(s.Start/world.WindowDuration) < mark }
	late := 0
	for i := range samples {
		if isLate(samples[i]) {
			late++
		}
	}
	if late > 0 {
		samples = slices.DeleteFunc(slices.Clone(samples), isLate)
		d.cLate.Add(int64(late))
	}
	g.Add(samples)
	d.cIngested.Add(int64(len(samples)))
	d.mu.Lock()
	if win >= 0 && win < len(d.winStats) {
		d.winStats[win].Ingested += len(samples)
		d.winStats[win].Late += late
	}
	d.mu.Unlock()
	return nil
}

// Seal advances the logical watermark past win, freezing it forever,
// and closes the window's segment-span chunk when win is the chunk's
// last window — encoding, appending, and committing it to the spool
// (one manifest commit per chunk, one version bump for the cache).
func (d *Daemon) Seal(win int) error {
	if d.sw == nil {
		return fmt.Errorf("studyd: seal on a wire-mode daemon (no live world)")
	}
	if int(d.watermark.Load()) != win {
		return fmt.Errorf("studyd: seal of window %d out of order (watermark %d)", win, d.watermark.Load())
	}
	d.watermark.Store(int64(win + 1))
	d.gMark.Set(float64(win + 1))
	d.cSealed.Inc()
	d.mu.Lock()
	if win >= 0 && win < len(d.winStats) {
		d.winStats[win].Sealed = true
	}
	d.mu.Unlock()
	if (win+1)%windowsPerChunk == 0 {
		return d.closeChunk((win+1)/windowsPerChunk - 1)
	}
	return nil
}

// closeChunk lands chunk c of every group that has a writer, in
// ascending group order, and commits the manifest once: the chunk
// writers are the batch writer's, and the manifest sorts by segment ID,
// so the finished spool is byte-identical to the batch writer's. The
// groups' chunks encode on GOMAXPROCS other goroutines, handed back in
// group order through a pipeline.Ordered, so at most
// pipeline.Window(GOMAXPROCS) units are encoded and not yet written;
// every write is this goroutine's, so the ledger and the trace are as
// a serial commit leaves them, and the first write error stops the
// rest. Each Encode touches only its own writer.
// studyd_seal_commit_seconds times it.
func (d *Daemon) closeChunk(c int) error {
	t0 := time.Now()
	defer func() { d.hCommit.ObserveDuration(time.Since(t0)) }()
	man := d.sw.Manifest()
	segs, tombs := len(man.Segments), len(man.Tombstones)
	var ws []*seggen.GroupWriter
	for _, g := range d.groups {
		if g != nil {
			ws = append(ws, g)
		}
	}
	encode := pipeline.NewOrdered[seggen.Unit](runtime.GOMAXPROCS(0), len(ws), nil)
	if err := encode.Run(context.Background(), func(_ context.Context, _, i int) (seggen.Unit, error) {
		return ws[i].Encode(c, c+1), nil
	}, func(u seggen.Unit) error {
		_, err := u.Write(d.ctx, d.sw, d.tb)
		return err
	}); err != nil {
		return err
	}
	if err := d.sw.Commit(); err != nil {
		return err
	}
	d.cSegs.Add(int64(len(man.Segments) - segs))
	d.cTombs.Add(int64(len(man.Tombstones) - tombs))
	d.BumpVersion()
	return nil
}

// Drain closes the ingest stream: any trailing partial chunk is
// sealed, the groups' batch fates are booked (what a fate cut is only
// known now), and the daemon flips to drained. The chunk writers are
// let go with their buffers; Stats keeps their totals. After Drain the
// spool is at rest.
func (d *Daemon) Drain() error {
	if d.sw == nil {
		d.SetDrained()
		return nil
	}
	mark := int(d.watermark.Load())
	if mark%windowsPerChunk != 0 {
		if err := d.closeChunk(mark / windowsPerChunk); err != nil {
			return err
		}
	}
	for _, g := range d.groups {
		if g != nil {
			g.Book(d.tb)
		}
	}
	d.guard.Coverage().EmitTrace(d.tb)
	d.stats, d.groups = d.Stats(), nil
	d.SetDrained()
	return nil
}

// RunLive drives the daemon from its world's live feed: workers
// generator goroutines simulate the groups up to a day ahead of
// ingest, every batch ingests and every window seals in logical order,
// and the stream drains.
// Cancelling ctx stops the feed, and any write retry waiting out a
// backoff, with ctx's cause; everything already committed is
// durable, and a rerun with the same flags resumes (committed chunks
// are recognised and skipped).
func (d *Daemon) RunLive(ctx context.Context, workers int) error {
	if d.opt.World == nil {
		return fmt.Errorf("studyd: RunLive needs a live world")
	}
	d.ctx = ctx
	feed := world.NewLiveFeed(d.opt.World)
	if err := feed.Run(ctx, workers, func(b world.WindowBatch) error {
		return d.Ingest(b.Group, b.Win, b.Samples, b.Lost)
	}, d.Seal); err != nil {
		return err
	}
	return d.Drain()
}
