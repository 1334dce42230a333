package studyd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/seggen"
	"repro/internal/segstore"
	"repro/internal/study"
	"repro/internal/world"
)

// rebuildReasons are the reasons study.Segments.Advance gives for
// folding from nothing: the label values of studyd_fold_rebuilds_total.
var rebuildReasons = []string{"segment_gone", "crc_changed", "out_of_order", "unindexed"}

// foldPaths reads how the daemon's resident study has revalidated so
// far: advances that extended it, and rebuilds by reason.
func foldPaths(d *Daemon) (extends int64, rebuilds map[string]int64) {
	rebuilds = map[string]int64{}
	var total int64
	for _, reason := range rebuildReasons {
		if n := d.opt.Reg.Counter(obs.L("studyd_fold_rebuilds_total", "reason", reason)).Value(); n > 0 {
			rebuilds[reason] = n
			total += n
		}
	}
	if got := d.hRebuild.Count(); got != total {
		panic(fmt.Sprintf("studyd_revalidate_seconds{mode=rebuild} counts %d, the reasons sum to %d", got, total))
	}
	return d.hExtend.Count(), rebuilds
}

// freshReport reads /report until the cache answers at the spool's
// current version, as a client polling behind a stale report does.
func freshReport(t testing.TB, d *Daemon) []byte {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		if body, state := get(t, d, "/report"); state != "stale" {
			return body
		}
	}
	t.Fatal("/report never came fresh")
	return nil
}

var errStop = errors.New("stop the feed here")

// driveLive feeds d from its world's live feed on this goroutine, as
// RunLive does, and calls committed with the day just closed after every
// seal that committed a chunk; committed returning errStop ends the feed
// there, undrained.
func driveLive(t testing.TB, d *Daemon, committed func(day int) error) {
	t.Helper()
	day := 0
	err := world.NewLiveFeed(d.opt.World).Run(context.Background(), 1, func(b world.WindowBatch) error {
		return d.Ingest(b.Group, b.Win, b.Samples, b.Lost)
	}, func(win int) error {
		before := d.Version()
		if err := d.Seal(win); err != nil || d.Version() == before {
			return err
		}
		day++
		return committed(day)
	})
	if errors.Is(err, errStop) {
		return
	}
	if err == nil {
		err = d.Drain()
	}
	if err != nil {
		t.Fatal(err)
	}
}

func liveDaemonOf(t testing.TB, dir string, cfg world.Config) *Daemon {
	t.Helper()
	d, err := New(Options{Dir: dir, Origin: "resident-test", World: world.New(cfg), Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// denseCfg is a world with baselines: at testCfg's four sessions a window
// no window reaches the 30-session floor, no group has a baseline and no
// comparison is valid, so nothing there can tell a wrongly extended §5
// from a right one. Forty-five a window puts most preferred routes over
// the floor.
func denseCfg(seed uint64, groups, days int) world.Config {
	return world.Config{Seed: seed, Groups: groups, Days: days, SessionsPerGroupWindow: 45}
}

// comparedBy is how many points each comparison series of res computed.
type comparedBy struct{ degM, degH, oppM, oppH, fig10 int }

func compared(res *study.Results) comparedBy {
	return comparedBy{res.DegMinRTT.Compared, res.DegHD.Compared, res.OppMinRTT.Compared, res.OppHD.Compared, res.Fig10.Compared}
}

func (c comparedBy) total() int { return c.degM + c.degH + c.oppM + c.oppH + c.fig10 }

// residentResults advances d's resident study where a fresh report left
// it — the spool has gained nothing since — and returns what it holds:
// an advance that folds nothing, rebuilds nothing and compares nothing.
func residentResults(t testing.TB, d *Daemon) *study.Results {
	t.Helper()
	d.residentMu.Lock()
	defer d.residentMu.Unlock()
	res, rebuilt, err := d.resident.Advance(context.Background())
	if err != nil || rebuilt != "" {
		t.Fatalf("advancing the resident study over nothing new: rebuilt %q, %v", rebuilt, err)
	}
	if c := compared(res); c != (comparedBy{}) {
		t.Fatalf("an advance over nothing new compared %+v", c)
	}
	return res
}

// listed counts the points a series lists: what computing it from nothing
// compares.
func listed(s analysis.Series) int {
	n := 0
	for _, g := range s.Groups {
		n += len(g.Points)
	}
	return n
}

// fromNothing is what a study of res's store that kept nothing compares.
func fromNothing(res *study.Results) comparedBy {
	return comparedBy{listed(res.DegMinRTT.Series), listed(res.DegHD.Series), listed(res.OppMinRTT.Series), listed(res.OppHD.Series),
		analysis.RelSeries{Metric: analysis.MetricMinRTT}.Extend(res.Store).Compared}
}

// sameResults holds the comparison series of a resident study to those of
// a fresh study of the same spool — group for group by key, baselines and
// points bit for bit, the byte counters — beyond what the rendered report
// shows of them.
func sameResults(t testing.TB, got, want *study.Results) {
	t.Helper()
	for _, pair := range []struct {
		what      string
		got, want analysis.Series
	}{
		{"§5 MinRTT", got.DegMinRTT.Series, want.DegMinRTT.Series}, {"§5 HDratio", got.DegHD.Series, want.DegHD.Series},
		{"§6.2 MinRTT", got.OppMinRTT.Series, want.OppMinRTT.Series}, {"§6.2 HDratio", got.OppHD.Series, want.OppHD.Series},
	} {
		g, w := pair.got, pair.want
		if g.CoveredBytes != w.CoveredBytes || g.TotalBytes != w.TotalBytes || len(g.Groups) != len(w.Groups) {
			t.Fatalf("%s: %d groups, %d/%d bytes covered; a fresh study %d, %d/%d", pair.what,
				len(g.Groups), g.CoveredBytes, g.TotalBytes, len(w.Groups), w.CoveredBytes, w.TotalBytes)
		}
		for i, wg := range w.Groups {
			gg := g.Groups[i]
			if gg.Group.Key != wg.Group.Key || math.Float64bits(gg.Baseline) != math.Float64bits(wg.Baseline) || len(gg.Points) != len(wg.Points) {
				t.Fatalf("%s: group %d: %v baseline %v, %d points; a fresh study %v, %v, %d", pair.what, i,
					gg.Group.Key, gg.Baseline, len(gg.Points), wg.Group.Key, wg.Baseline, len(wg.Points))
			}
			for j, wp := range wg.Points {
				p := gg.Points[j]
				if p.Window != wp.Window || p.Valid != wp.Valid || p.HDGuardOK != wp.HDGuardOK || p.AltIndex != wp.AltIndex || p.Bytes != wp.Bytes ||
					math.Float64bits(p.Diff) != math.Float64bits(wp.Diff) || math.Float64bits(p.Lo) != math.Float64bits(wp.Lo) || math.Float64bits(p.Hi) != math.Float64bits(wp.Hi) {
					t.Fatalf("%s: %v point %d: %+v, a fresh study %+v", pair.what, wg.Group.Key, j, p, wp)
				}
			}
		}
	}
}

// baselineWatch follows the served groups' MinRTT baselines from one
// commit's results to the next.
type baselineWatch struct {
	last        map[sample.GroupKey]uint64
	moved, kept int // group-commits whose baseline bits changed, stayed
}

func (w *baselineWatch) see(res *study.Results) {
	now := make(map[sample.GroupKey]uint64, len(res.DegMinRTT.Groups))
	for _, g := range res.DegMinRTT.Groups {
		bits := math.Float64bits(g.Baseline)
		now[g.Group.Key] = bits
		if was, ok := w.last[g.Group.Key]; ok && was != bits {
			w.moved++
		} else if ok {
			w.kept++
		}
	}
	w.last = now
}

// The served report is fresh — the batch study of the spool as it then
// stands, byte for byte — after every commit, not only at drain, and the
// daemon gets there by extending its resident study: one cold advance a
// process, an extension a commit, no rebuild. A filtered query in
// between folds its own study and leaves the resident one alone. Day 2
// ends the first daemon; a second one opened on the spool folds what is
// there and goes on extending.
func TestReportFreshAtEveryCommit(t *testing.T) {
	reportFreshAtEveryCommit(t, world.Config{Seed: 19, Groups: 8, Days: 3, SessionsPerGroupWindow: 4})
	if moved := reportFreshAtEveryCommit(t, denseCfg(19, 8, 3)); moved == 0 {
		t.Error("no served group's baseline moved between two commits of the dense world: its extensions never had to look back")
	}
}

// reportFreshAtEveryCommit is the test over one world; it returns how
// many group-commits moved a served group's MinRTT baseline.
func reportFreshAtEveryCommit(t *testing.T, cfg world.Config) (moved int) {
	dir := t.TempDir()

	checked := 0
	var baselines baselineWatch
	check := func(d *Daemon, day int) {
		t.Helper()
		if got, want := freshReport(t, d), renderGolden(t, dir); !bytes.Equal(got, want) {
			t.Fatalf("after day %d: /report differs from study.FromSegments over the spool", day)
		}
		baselines.see(residentResults(t, d))
		checked++
	}

	first := liveDaemonOf(t, dir, cfg)
	driveLive(t, first, func(day int) error {
		check(first, day)
		if day == 1 {
			before, _ := foldPaths(first)
			if body, state := get(t, first, "/report?from=6h"); state != "miss" || len(body) == 0 {
				t.Fatalf("filtered report: state %q, %d bytes", state, len(body))
			}
			if after, _ := foldPaths(first); after != before {
				t.Fatal("a filtered query advanced the resident study")
			}
		}
		if day == 2 {
			return errStop
		}
		return nil
	})
	if extends, rebuilds := foldPaths(first); extends != 2 || len(rebuilds) != 0 {
		t.Fatalf("first daemon: %d extensions, rebuilds %v; want 2 and none", extends, rebuilds)
	}
	freshRenders(t, first, 2)

	// The second daemon regenerates days 1 and 2, finds their chunks
	// committed, and commits day 3: its first report folds the two days at
	// rest, the next revalidations find nothing new, then one chunk a group.
	second := liveDaemonOf(t, dir, cfg)
	driveLive(t, second, func(day int) error {
		check(second, day)
		return nil
	})
	if extends, rebuilds := foldPaths(second); extends != 3 || len(rebuilds) != 0 {
		t.Fatalf("second daemon: %d extensions, rebuilds %v; want 3 and none", extends, rebuilds)
	}
	if checked != 5 {
		t.Fatalf("%d commits checked, want 5", checked)
	}
	freshRenders(t, second, 3)
	if got, want := second.gFoldSegs.Value(), float64(cfg.Groups*cfg.Days); got != want {
		t.Errorf("studyd_fold_segments = %v, want %v", got, want)
	}
	if second.gCells.Value() < float64(cfg.Groups*cfg.Windows()/2) {
		t.Errorf("studyd_fold_cells = %v for %d groups x %d windows", second.gCells.Value(), cfg.Groups, cfg.Windows())
	}
	if got, want := second.gServed.Value(), float64(second.Version()); got != want {
		t.Errorf("studyd_served_version = %v with the spool at %v and the report fresh", got, want)
	}

	golden := t.TempDir()
	if _, err := seggen.Run(context.Background(), seggen.Options{World: world.New(cfg), Dir: golden, Origin: "resident-test"}); err != nil {
		t.Fatal(err)
	}
	dirsEqual(t, golden, dir)
	return baselines.moved
}

// freshRenders asserts that d's /metrics counts want renders in
// studyd_seal_to_fresh_seconds: one a commit, when every commit was
// read until its report came fresh, and a later read at the same
// version (the filtered report on day one) renders without counting.
func freshRenders(t *testing.T, d *Daemon, want int) {
	t.Helper()
	metrics, _ := get(t, d, "/metrics")
	line := fmt.Sprintf("studyd_seal_to_fresh_seconds_count %d\n", want)
	if !bytes.Contains(metrics, []byte(line)) {
		t.Errorf("/metrics lacks %q:\n%s", line, metrics)
	}
}

// A clean month: thirty commits, thirty extensions, and not one rebuild
// — which the benchmark's live_serve round, the same shape, cannot see,
// because a daemon that silently rebuilt every day would serve the same
// bytes. This world remaps a group to another PoP in the middle of a day,
// so one of its chunks spans two user groups, and that extends too.
func TestCleanRoundNeverRebuilds(t *testing.T) {
	cfg := world.Config{Seed: 23, Groups: 8, Days: 30, SessionsPerGroupWindow: 1}
	dir := t.TempDir()
	d := liveDaemonOf(t, dir, cfg)
	var last []byte
	driveLive(t, d, func(int) error {
		last = freshReport(t, d)
		return nil
	})
	if extends, rebuilds := foldPaths(d); extends != 30 || len(rebuilds) != 0 {
		t.Fatalf("%d extensions, rebuilds %v; want 30 and none", extends, rebuilds)
	}
	if want := renderGolden(t, dir); !bytes.Equal(last, want) {
		t.Fatal("the thirtieth extension differs from study.FromSegments over the drained spool")
	}
	// Each of the thirty commits is timed once.
	if metrics, _ := get(t, d, "/metrics"); !bytes.Contains(metrics, []byte("studyd_seal_commit_seconds_count 30\n")) {
		t.Errorf("/metrics does not count thirty commits in studyd_seal_commit_seconds:\n%s", metrics)
	}
	man, err := segstore.LoadManifest(d.opt.Dir)
	if err != nil {
		t.Fatal(err)
	}
	spanning := 0
	for _, m := range man.Segments {
		if !m.SingleGroup() {
			spanning++
		}
	}
	if spanning == 0 {
		t.Error("no chunk of this world spans two user groups any more; pick a seed whose world remaps a group mid-day")
	}
}

// wantCompared is what extending prev to cur has to compare: the points
// cur lists beyond prev's, group by group — all of a group's when prev did
// not list it, and, where rediff says a moved baseline starts a group over
// (§5), when its baseline's bits are not prev's.
func wantCompared(prev, cur analysis.Series, rediff bool) (n, startedOver int) {
	was := make(map[*agg.GroupSeries]analysis.GroupSeries, len(prev.Groups))
	for _, g := range prev.Groups {
		was[g.Group] = g
	}
	for _, g := range cur.Groups {
		n += len(g.Points)
		p, ok := was[g.Group]
		if ok && rediff && math.Float64bits(p.Baseline) != math.Float64bits(g.Baseline) {
			startedOver++
		} else if ok {
			n -= len(p.Points)
		}
	}
	return n, startedOver
}

// What a revalidation compares is a count that repeats exactly, so that
// it is O(chunk) is an equality, not a timing: over TestCleanRoundNever-
// Rebuilds' shape on a world with baselines, every commit after the first
// has §6.2 and Figure 10 compare exactly the windows the commit added, and
// §5 those plus every window of exactly the groups whose baseline the day
// moved; the first compares everything, and an advance that finds nothing
// new compares nothing. Odd days advance the resident study by hand and
// hold each series' count, then find the report's revalidation with
// nothing to do; even days let the report revalidate and hold the gauge to
// the sum. (The parent of this test's commit compared every window at
// every commit.)
func TestRevalidationComparesOnlyNewWindows(t *testing.T) {
	cfg := denseCfg(23, 8, 5)
	dir := t.TempDir()
	d := liveDaemonOf(t, dir, cfg)
	prev := &study.Results{}
	var prevAll comparedBy
	startedOver, extended := 0, 0
	driveLive(t, d, func(day int) error {
		var got comparedBy
		var res *study.Results
		if day%2 == 1 {
			d.residentMu.Lock()
			r, rebuilt, err := d.resident.Advance(context.Background())
			d.residentMu.Unlock()
			if err != nil || rebuilt != "" {
				t.Fatalf("day %d: rebuilt %q, %v", day, rebuilt, err)
			}
			res, got = r, compared(r)
			if body, want := freshReport(t, d), renderGolden(t, dir); !bytes.Equal(body, want) {
				t.Fatalf("day %d: /report differs from study.FromSegments over the spool", day)
			}
			if g := d.gCompared.Value(); g != 0 {
				t.Errorf("day %d: studyd_revalidate_points_compared = %v after a revalidation with nothing new", day, g)
			}
		} else {
			freshReport(t, d)
			res = residentResults(t, d)
		}

		all := fromNothing(res)
		var want comparedBy
		var moved, movedHD int
		want.degM, moved = wantCompared(prev.DegMinRTT.Series, res.DegMinRTT.Series, true)
		want.degH, movedHD = wantCompared(prev.DegHD.Series, res.DegHD.Series, true)
		want.oppM, _ = wantCompared(prev.OppMinRTT.Series, res.OppMinRTT.Series, false)
		want.oppH, _ = wantCompared(prev.OppHD.Series, res.OppHD.Series, false)
		want.fig10 = all.fig10 - prevAll.fig10
		if day == 1 && want != all {
			t.Fatalf("day 1: the first revalidation should compare everything: %+v of %+v", want, all)
		}
		if day > 1 {
			if want.oppM >= all.oppM || want.fig10 >= all.fig10 || want.degH >= all.degH {
				t.Fatalf("day %d: the commit added %+v of %+v: not a day's worth", day, want, all)
			}
			startedOver += moved + movedHD
			extended += len(res.DegMinRTT.Groups) + len(res.DegHD.Groups) - moved - movedHD
		}
		if day%2 == 1 {
			if got != want {
				t.Errorf("day %d: compared %+v; the commit's windows and moved baselines are %+v (everything: %+v)", day, got, want, all)
			}
		} else if g := d.gCompared.Value(); g != float64(want.total()) {
			t.Errorf("day %d: studyd_revalidate_points_compared = %v; the commit's windows and moved baselines are %d (everything: %d)", day, g, want.total(), all.total())
		}
		prev, prevAll = res, all
		return nil
	})
	if extends, rebuilds := foldPaths(d); extends != int64(cfg.Days) || len(rebuilds) != 0 {
		t.Fatalf("%d extensions, rebuilds %v; want %d and none", extends, rebuilds, cfg.Days)
	}
	if startedOver == 0 || extended == 0 {
		t.Errorf("%d group-commits moved a baseline and %d kept one: the §5 rule was not held both ways", startedOver, extended)
	}
	if got, want := d.gCells.Value(), float64(residentResults(t, d).Store.Cells()); got != want || want == 0 {
		t.Errorf("studyd_fold_cells = %v, the store counts %v", got, want)
	}
}

// handSpool is a spool filled by hand under a wire-mode daemon, from the
// segments of a golden dataset of a two-day world (segment ID = group*2 +
// day).
type handSpool struct {
	t         *testing.T
	dir       string
	goldenDir string
	golden    *segstore.Manifest
	sw        *segstore.Writer
	d         *Daemon

	baselines *baselineWatch
	rebuilds  int64 // as of the last commit
}

func newHandSpool(t *testing.T, cfg world.Config, baselines *baselineWatch) *handSpool {
	t.Helper()
	goldenDir := t.TempDir()
	if _, err := seggen.Run(context.Background(), seggen.Options{World: world.New(cfg), Dir: goldenDir, Origin: "hand-golden"}); err != nil {
		t.Fatal(err)
	}
	golden, err := segstore.LoadManifest(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	h := &handSpool{t: t, dir: t.TempDir(), goldenDir: goldenDir, golden: golden, baselines: baselines}
	h.reopen()
	if h.d, err = New(Options{Dir: h.dir, Reg: obs.NewRegistry()}); err != nil {
		t.Fatal(err)
	}
	return h
}

// reopen resumes the spool's writer, which drops manifest entries whose
// files no longer match them.
func (h *handSpool) reopen() {
	h.t.Helper()
	sw, err := segstore.Create(h.dir, "hand")
	if err != nil {
		h.t.Fatal(err)
	}
	h.sw = sw
}

func (h *handSpool) meta(id int) segstore.SegmentMeta {
	h.t.Helper()
	for _, m := range h.golden.Segments {
		if m.ID == id {
			return m
		}
	}
	h.t.Fatalf("the golden dataset has no segment %d", id)
	return segstore.SegmentMeta{}
}

func (h *handSpool) rows(id int) []sample.Sample {
	h.t.Helper()
	data, err := os.ReadFile(filepath.Join(h.goldenDir, h.meta(id).File))
	if err != nil {
		h.t.Fatal(err)
	}
	b, err := segstore.DecodeSegmentColumns(data)
	if err != nil {
		h.t.Fatal(err)
	}
	return b.AppendRows(nil)
}

// add lands rows as segment id; edit, when given, touches the manifest
// entry first.
func (h *handSpool) add(id int, rows []sample.Sample, edit ...func(*segstore.SegmentMeta)) {
	h.t.Helper()
	blob, meta := segstore.EncodeSegment(rows)
	for _, e := range edit {
		e(&meta)
	}
	if err := h.sw.Add(id, blob, meta); err != nil {
		h.t.Fatal(err)
	}
}

// commit publishes the manifest, as a merger's commit does, and holds
// the fresh report to the batch study of the spool — its bytes, and the
// series behind them point for point; it returns how the resident study
// got there. One that got there by a rebuild kept nothing: it compared
// every window, as the batch study did.
func (h *handSpool) commit() (extends int64, rebuilds map[string]int64) {
	h.t.Helper()
	if err := h.sw.Commit(); err != nil {
		h.t.Fatal(err)
	}
	h.d.BumpVersion()
	if got, want := freshReport(h.t, h.d), renderGolden(h.t, h.dir); !bytes.Equal(got, want) {
		h.t.Fatal("/report differs from study.FromSegments over the spool")
	}
	fresh, err := study.FromSegments(context.Background(), h.dir, study.Options{Workers: 1})
	if err != nil {
		h.t.Fatal(err)
	}
	res := residentResults(h.t, h.d)
	sameResults(h.t, res, fresh)
	h.baselines.see(res)

	extends, rebuilds = foldPaths(h.d)
	was := h.rebuilds
	h.rebuilds = h.d.hRebuild.Count()
	if got, all := h.d.gCompared.Value(), float64(compared(fresh).total()); h.rebuilds > was && got != all {
		h.t.Fatalf("a rebuild compared %v points; the spool's study from nothing compares %v", got, all)
	} else if h.rebuilds == was && extends > 1 && got >= all {
		h.t.Fatalf("an extension compared %v points of the %v a study from nothing compares", got, all)
	}
	return extends, rebuilds
}

// Manifests that do not extend what the resident study has folded — a
// group's day 2 before its day 1, a folded segment rewritten or gone, a
// segment whose manifest entry does not name its groups — each send it
// through a rebuild, for the reason counted, and the report is the batch
// study's bytes all the same; a segment that spans two user groups, named
// by its entry, extends like any other. The counters are the assertion
// that the other tests' extensions are extensions: a study that always
// rebuilt would pass every byte comparison here and fail these.
func TestSpoolsThatDoNotExtendRebuild(t *testing.T) {
	want := func(t *testing.T, extends int64, rebuilds map[string]int64, wantExtends int64, wantRebuilds map[string]int64) {
		t.Helper()
		if extends != wantExtends || fmt.Sprint(rebuilds) != fmt.Sprint(wantRebuilds) {
			t.Fatalf("%d extensions, rebuilds %v; want %d, %v", extends, rebuilds, wantExtends, wantRebuilds)
		}
	}
	none := map[string]int64{}
	// Every case runs over testCfg's world and over one with baselines.
	var baselines baselineWatch
	run := func(name string, body func(t *testing.T, h *handSpool)) {
		t.Run(name, func(t *testing.T) {
			body(t, newHandSpool(t, testCfg, new(baselineWatch)))
			baselines.last = nil
			body(t, newHandSpool(t, denseCfg(testCfg.Seed, testCfg.Groups, testCfg.Days), &baselines))
		})
	}

	run("out of order", func(t *testing.T, h *handSpool) {
		for g := 0; g < testCfg.Groups; g++ {
			if g != 3 {
				h.add(2*g, h.rows(2*g))
			}
		}
		h.add(7, h.rows(7)) // group 3's day 2, its day 1 still to come
		e, r := h.commit()
		want(t, e, r, 1, none)
		h.add(6, h.rows(6))
		e, r = h.commit()
		want(t, e, r, 1, map[string]int64{"out_of_order": 1})
		h.add(1, h.rows(1)) // and in order again
		e, r = h.commit()
		want(t, e, r, 2, map[string]int64{"out_of_order": 1})
	})

	run("segment spanning groups", func(t *testing.T, h *handSpool) {
		for g := 0; g < testCfg.Groups; g++ {
			h.add(2*g, h.rows(2*g))
		}
		e, r := h.commit()
		want(t, e, r, 1, none)
		// Day 2 of groups 4 and 5 packed into one segment, after every ID
		// the two hold: both are continued.
		packed := append(h.rows(9), h.rows(11)...)
		if packed[0].Key() == packed[len(packed)-1].Key() {
			t.Fatal("groups 4 and 5 are one user group")
		}
		h.add(100, packed)
		e, r = h.commit()
		want(t, e, r, 2, none)
		// Day 2 of group 4 again, as if late: its windows are folded.
		h.add(101, h.rows(9))
		e, r = h.commit()
		want(t, e, r, 2, map[string]int64{"out_of_order": 1})
	})

	run("no group index", func(t *testing.T, h *handSpool) {
		for g := 0; g < testCfg.Groups; g++ {
			h.add(2*g, h.rows(2*g))
		}
		e, r := h.commit()
		want(t, e, r, 1, none)
		// An entry as manifests older than the prefix index carry them.
		h.add(1, h.rows(1), func(m *segstore.SegmentMeta) { m.Prefixes = nil })
		e, r = h.commit()
		want(t, e, r, 1, map[string]int64{"unindexed": 1})
		// Nothing extends a study that holds it: nobody can say where its
		// groups end.
		h.add(3, h.rows(3))
		e, r = h.commit()
		want(t, e, r, 1, map[string]int64{"unindexed": 2})
	})

	run("segment rewritten, segment gone", func(t *testing.T, h *handSpool) {
		for g := 0; g < testCfg.Groups; g++ {
			h.add(2*g, h.rows(2*g))
		}
		e, r := h.commit()
		want(t, e, r, 1, none)
		// Segment 4 rots on disk; the resumed writer drops it and the
		// producer lands it again with other rows.
		if err := os.WriteFile(filepath.Join(h.dir, h.meta(4).File), []byte("rot"), 0o666); err != nil {
			t.Fatal(err)
		}
		h.reopen()
		h.add(4, h.rows(4)[1:])
		e, r = h.commit()
		want(t, e, r, 1, map[string]int64{"crc_changed": 1})
		// Segment 8 rots and is not replaced.
		if err := os.WriteFile(filepath.Join(h.dir, h.meta(8).File), []byte("rot"), 0o666); err != nil {
			t.Fatal(err)
		}
		h.reopen()
		e, r = h.commit()
		want(t, e, r, 1, map[string]int64{"crc_changed": 1, "segment_gone": 1})
	})

	if baselines.moved == 0 {
		t.Error("no served group's baseline moved between two commits of the dense world")
	}
}

// /report names every body with a strong ETag and answers a matching
// If-None-Match with 304 and no body; a commit changes the tag, and the
// stale bytes served while the new report is built still carry the tag
// of the version they were built at. A request without If-None-Match is
// answered as it always was.
func TestReportValidators(t *testing.T) {
	dir := t.TempDir()
	d := liveDaemonOf(t, dir, world.Config{Seed: 29, Groups: 4, Days: 2, SessionsPerGroupWindow: 4})
	fetch := func(ifNoneMatch string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", "/report", nil)
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		rr := httptest.NewRecorder()
		d.Handler().ServeHTTP(rr, req)
		return rr
	}

	var day1Tag string
	var day1Body []byte
	driveLive(t, d, func(day int) error {
		if day == 2 {
			// The commit has bumped the version; the first read is the
			// day-1 bytes, stale, under the day-1 tag — to a plain request
			// and, as a 304, to a client that holds them.
			stale := fetch("")
			if stale.Header().Get("X-Cache") != "stale" || stale.Header().Get("ETag") != day1Tag || !bytes.Equal(stale.Body.Bytes(), day1Body) {
				t.Fatalf("first read after the commit: X-Cache %q, ETag %q (day 1's is %q)", stale.Header().Get("X-Cache"), stale.Header().Get("ETag"), day1Tag)
			}
			return nil
		}
		first := fetch("")
		day1Tag, day1Body = first.Header().Get("ETag"), first.Body.Bytes()
		if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" || len(day1Body) == 0 {
			t.Fatalf("first read: %d, X-Cache %q, %d bytes", first.Code, first.Header().Get("X-Cache"), len(day1Body))
		}
		if want := fmt.Sprintf(`"%d-`, d.Version()); len(day1Tag) < len(want) || day1Tag[:len(want)] != want || day1Tag[len(day1Tag)-1] != '"' {
			t.Fatalf("ETag %q does not lead with the spool version %d", day1Tag, d.Version())
		}
		if cc := first.Header().Get("Cache-Control"); cc != "max-age=0, stale-while-revalidate=60" {
			t.Fatalf("Cache-Control %q", cc)
		}
		for _, held := range []string{day1Tag, "W/" + day1Tag, `"other", ` + day1Tag, "*"} {
			rr := fetch(held)
			if rr.Code != http.StatusNotModified || rr.Body.Len() != 0 || rr.Header().Get("ETag") != day1Tag || rr.Header().Get("X-Cache") != "hit" {
				t.Fatalf("If-None-Match %s: %d with %d bytes, ETag %q, X-Cache %q; want a bare 304", held, rr.Code, rr.Body.Len(), rr.Header().Get("ETag"), rr.Header().Get("X-Cache"))
			}
		}
		if rr := fetch(`"0-00000000-00000000"`); rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), day1Body) {
			t.Fatalf("If-None-Match of another tag: %d", rr.Code)
		}
		return nil
	})

	day2Body := freshReport(t, d)
	rr := fetch(day1Tag)
	if rr.Code != http.StatusOK || rr.Header().Get("ETag") == day1Tag || !bytes.Equal(rr.Body.Bytes(), day2Body) || bytes.Equal(day2Body, day1Body) {
		t.Fatalf("day 1's tag against day 2's report: %d, ETag %q", rr.Code, rr.Header().Get("ETag"))
	}
	if rr := fetch(rr.Header().Get("ETag")); rr.Code != http.StatusNotModified {
		t.Fatalf("day 2's tag against day 2's report: %d", rr.Code)
	}
}

// The resident study is reached from request goroutines and from the
// cache's detached revalidations while the ingest side commits; `go test
// -race` watches readers of the unfiltered and of a filtered report run
// through a whole live round, and the report they leave behind is still
// the batch study's.
func TestReportsWhileIngesting(t *testing.T) {
	dir := t.TempDir()
	d := liveDaemon(t, dir, "")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/report", "/report", "/report?from=12h", "/report?country=GB,US"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rr := httptest.NewRecorder()
				d.Handler().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
				// Before the first commit the spool holds no sample and the
				// study has nothing to infer a shape from; any other failure
				// is one.
				if rr.Code != http.StatusOK && d.Version() > 0 {
					t.Errorf("GET %s: %d %s", path, rr.Code, rr.Body.String())
					return
				}
			}
		}()
	}
	err := d.RunLive(context.Background(), 2)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := freshReport(t, d), renderGolden(t, dir); !bytes.Equal(got, want) {
		t.Fatal("/report after a round read from four goroutines differs from study.FromSegments over the spool")
	}
	if _, rebuilds := foldPaths(d); len(rebuilds) != 0 {
		t.Fatalf("rebuilds %v in a clean round", rebuilds)
	}
}
