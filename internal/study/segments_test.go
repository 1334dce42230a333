package study

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/analysis"
	"repro/internal/collector"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/seggen"
	"repro/internal/segstore"
	"repro/internal/world"
)

// rowsSource is the replay oracle of these tests: a dataset held as
// generated rows, delivered through sink.rows with e.Filter.Match as
// the only predicate. It shares no code with segment encode, manifest
// pruning, ApplyColumns or decode, so a segment replay agreeing with it
// byte for byte checks all four.
type rowsSource struct {
	rows []sample.Sample
}

func (*rowsSource) seed() uint64                         { return 0 }
func (*rowsSource) config(store *agg.Store) world.Config { return inferredCfg(store) }

func (s *rowsSource) deliver(ctx context.Context, e *env, sk sink) error {
	const perBatch = 1024
	for lo := 0; lo < len(s.rows); lo += perBatch {
		var kept []sample.Sample
		for i := lo; i < min(lo+perBatch, len(s.rows)); i++ {
			if e.Filter.Match(&s.rows[i]) {
				kept = append(kept, s.rows[i])
			}
		}
		if err := sk.rows(ctx, -1, kept); err != nil {
			return err
		}
	}
	return nil
}

// rowsOracle runs the study over rows: at opt.Workers 1 with no plan,
// the reference every replay is held to.
func rowsOracle(t *testing.T, rows []sample.Sample, opt Options) *Results {
	t.Helper()
	res, _, err := run(context.Background(), &rowsSource{rows: rows}, opt, nil, nil)
	if err != nil {
		t.Fatalf("rows oracle (workers=%d): %v", opt.Workers, err)
	}
	return res
}

// writeDataset generates cfg's dataset twice over: as the rows the
// collection filter keeps, for rowsSource, and as the segment directory
// cmd/edgesim writes for the same flags.
func writeDataset(t *testing.T, cfg world.Config) ([]sample.Sample, string) {
	t.Helper()
	var rows []sample.Sample
	col := collector.New(collector.SliceSink(&rows))
	for _, s := range world.New(cfg).GenerateAll() {
		col.Offer(s)
	}
	dir := filepath.Join(t.TempDir(), "ds.seg")
	if _, err := seggen.Run(context.Background(), seggen.Options{World: world.New(cfg), Dir: dir, Origin: "test", Workers: 2}); err != nil {
		t.Fatal(err)
	}
	return rows, dir
}

// The segment path's core guarantee: FromSegments renders a report
// byte-identical to the sequential rows oracle over the same dataset,
// at every worker count — and with a filter pushed down, byte-identical
// to the oracle's filtered runs.
func TestFromSegmentsReportByteIdentical(t *testing.T) {
	cfg := detCfg()
	cfg.Days = 2 // so the time filter crosses a segment-span boundary
	rows, dir := writeDataset(t, cfg)

	filters := []*segstore.Filter{
		nil,
		{From: 6 * time.Hour, To: 30 * time.Hour},
		{Countries: []string{"US", "BR"}},
	}
	for _, f := range filters {
		seqRes := rowsOracle(t, rows, Options{Workers: 1, Filter: f})
		seq := renderNormalized(t, seqRes)
		if len(seq) == 0 {
			t.Fatal("sequential report is empty")
		}

		for _, workers := range []int{1, 2, 4} {
			res, err := FromSegments(context.Background(), dir, Options{Workers: workers, Filter: f})
			if err != nil {
				t.Fatalf("filter=%v workers=%d: %v", f, workers, err)
			}
			if res.Collector != seqRes.Collector {
				t.Errorf("filter=%v workers=%d: collector stats %+v != sequential %+v", f, workers, res.Collector, seqRes.Collector)
			}
			if got := renderNormalized(t, res); !bytes.Equal(got, seq) {
				t.Fatalf("filter=%v workers=%d: FromSegments report differs from the sequential rows oracle:\n%s", f, workers, firstDiff(got, seq))
			}
		}

		// The oracle's rows through the sharded sink must agree too.
		if got := renderNormalized(t, rowsOracle(t, rows, Options{Workers: 3, Filter: f})); !bytes.Equal(got, seq) {
			t.Fatalf("filter=%v: sharded rows report differs from the sequential rows oracle:\n%s", f, firstDiff(got, seq))
		}
	}
}

// Regression (run under -race, as `make race` does) for the two places
// the ingest's goroutines share a batch. A segment that holds user groups
// of different shards is cut into several views, and cutting view N+1
// reads the parent's RespEnds[lo-1] — the last row of view N, which a
// shard worker may already be compacting — so the routes lane cuts every
// view before it sends any. And a shard compacts its view in place, so
// the routes lane must be done reading the batch before it sends one: the
// lanes are a chain. Converted and natively written datasets hold one
// user group per segment, and hold no hosting rows, so the dataset here
// is the world's raw stream packed by row count: hosting rows between
// kept ones make every Compact move rows.
func TestFromSegmentsMultiGroupSegmentsRaceFree(t *testing.T) {
	const rowsPerSegment = 4096
	rows := world.New(detCfg()).GenerateAll()

	dir := filepath.Join(t.TempDir(), "packed.seg")
	sw, err := segstore.Create(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	crossShard, hosting := 0, 0
	for id, lo := 0, 0; lo < len(rows); id, lo = id+1, lo+rowsPerSegment {
		seg := rows[lo:min(lo+rowsPerSegment, len(rows))]
		for i := 1; i < len(seg); i++ {
			if seg[i].Key().Hash()%4 != seg[i-1].Key().Hash()%4 {
				crossShard++
			}
			if seg[i-1].HostingProvider && !seg[i].HostingProvider {
				hosting++
			}
		}
		blob, meta := segstore.EncodeSegment(seg)
		if err := sw.Add(id, blob, meta); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Commit(); err != nil {
		t.Fatal(err)
	}
	if crossShard == 0 || hosting == 0 {
		t.Fatalf("%d shard changes and %d hosting rows followed by a kept one inside segments: the cuts and compactions this test exists for do not happen", crossShard, hosting)
	}

	want := renderNormalized(t, rowsOracle(t, rows, Options{Workers: 1}))
	for _, workers := range []int{1, 4} {
		got, err := FromSegments(context.Background(), dir, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if g := renderNormalized(t, got); !bytes.Equal(g, want) {
			t.Fatalf("workers=%d report differs from the rows oracle's:\n%s", workers, firstDiff(g, want))
		}
	}
}

// A Segments study advanced over a spool that grows by a day equals the
// rows oracle at every step; an Advance that fails halfway through its
// delta (a new segment rotted on disk, found by the scan after the ones
// before it were folded) leaves the study to start over, not holding half
// a day twice; and a study whose options ask for the sharded pipeline
// keeps nothing and folds the same bytes from nothing each time.
func TestSegmentsAdvance(t *testing.T) {
	cfg := detCfg()
	cfg.Days = 2
	rows, full := writeDataset(t, cfg)
	var day1 []sample.Sample
	for _, s := range rows {
		if s.Start < segstore.DefaultSegmentSpan {
			day1 = append(day1, s)
		}
	}
	wantDay1 := renderNormalized(t, rowsOracle(t, day1, Options{Workers: 1}))
	wantFull := renderNormalized(t, rowsOracle(t, rows, Options{Workers: 1}))

	src, err := segstore.Open(full)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	dir := filepath.Join(t.TempDir(), "growing.seg")
	sw, err := segstore.Create(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	// land copies the golden dataset's segments of one day (ID = group*2 +
	// day) and returns the last one's file.
	land := func(day int) string {
		t.Helper()
		last := ""
		for _, m := range src.Manifest().Segments {
			if m.ID%2 != day {
				continue
			}
			blob, err := os.ReadFile(filepath.Join(full, m.File))
			if err != nil {
				t.Fatal(err)
			}
			if err := sw.Add(m.ID, blob, m); err != nil {
				t.Fatal(err)
			}
			last = filepath.Join(dir, m.File)
		}
		if err := sw.Commit(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	advance := func(s *Segments, want []byte, what string) {
		t.Helper()
		res, rebuilt, err := s.Advance(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if rebuilt != "" {
			t.Errorf("%s: folded again from nothing (%s)", what, rebuilt)
		}
		if got := renderNormalized(t, res); !bytes.Equal(got, want) {
			t.Fatalf("%s: report differs from the rows oracle:\n%s", what, firstDiff(got, want))
		}
	}

	land(0)
	s := OpenSegments(dir, Options{Workers: 1})
	advance(s, wantDay1, "day 1")
	if s.Folded() != cfg.Groups {
		t.Fatalf("%d segments folded after day 1, want %d", s.Folded(), cfg.Groups)
	}

	lastFile := land(1)
	good, err := os.ReadFile(lastFile)
	if err != nil {
		t.Fatal(err)
	}
	rotted := append([]byte(nil), good...)
	rotted[len(rotted)/2] ^= 0xff
	if err := os.WriteFile(lastFile, rotted, 0o666); err != nil {
		t.Fatal(err)
	}
	if res, _, err := s.Advance(context.Background()); !errors.Is(err, segstore.ErrCorrupt) || res != nil {
		t.Fatalf("Advance over a rotted segment: (%v, %v), want ErrCorrupt", res, err)
	}
	if s.Folded() != 0 {
		t.Fatalf("a failed Advance left %d segments folded", s.Folded())
	}
	if err := os.WriteFile(lastFile, good, 0o666); err != nil {
		t.Fatal(err)
	}
	advance(s, wantFull, "day 2, after the failed advance")
	advance(s, wantFull, "nothing new")
	if s.Folded() != 2*cfg.Groups {
		t.Fatalf("%d segments folded, want %d", s.Folded(), 2*cfg.Groups)
	}

	sharded := OpenSegments(dir, Options{Workers: 4})
	advance(sharded, wantFull, "sharded")
	advance(sharded, wantFull, "sharded, again")
	if sharded.Folded() != 0 {
		t.Fatalf("a sharded study kept %d segments", sharded.Folded())
	}
}

// points counts what a series lists.
func points(s analysis.Series) int {
	n := 0
	for _, g := range s.Groups {
		n += len(g.Points)
	}
	return n
}

// A Segments study extends its comparison series with its store: over a
// world dense enough to have baselines (45 sessions a window), each
// advance renders the report a fresh study of the directory renders (the
// series behind it are held point for point in internal/analysis and
// internal/studyd), it compares the new day's windows (and, for §5, all
// the windows of the groups whose baseline the day moved) where the fresh
// study compares every window, an advance over nothing new compares
// nothing, and the counts land on Options.Reg. An Advance that fails keeps no results, as
// it keeps no sink: the next one compares everything. So does every
// advance of a sharded study.
func TestSegmentsExtendComparesOnlyNewWindows(t *testing.T) {
	cfg := world.Config{Seed: 31, Groups: 6, Days: 3, SessionsPerGroupWindow: 45}
	_, full := writeDataset(t, cfg)
	src, err := segstore.Open(full)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	dir := filepath.Join(t.TempDir(), "growing.seg")
	sw, err := segstore.Create(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	land := func(day int) (lastFile string) {
		t.Helper()
		for _, m := range src.Manifest().Segments {
			if m.ID%cfg.Days != day {
				continue
			}
			blob, err := os.ReadFile(filepath.Join(full, m.File))
			if err != nil {
				t.Fatal(err)
			}
			if err := sw.Add(m.ID, blob, m); err != nil {
				t.Fatal(err)
			}
			lastFile = filepath.Join(dir, m.File)
		}
		if err := sw.Commit(); err != nil {
			t.Fatal(err)
		}
		return lastFile
	}
	type counts struct{ degM, degH, oppM, oppH, fig10 int }
	compared := func(r *Results) counts {
		return counts{r.DegMinRTT.Compared, r.DegHD.Compared, r.OppMinRTT.Compared, r.OppHD.Compared, r.Fig10.Compared}
	}
	reg := obs.NewRegistry()
	var onReg counts
	// advance holds the study's results to a fresh study's and returns
	// both studies' counts.
	advance := func(s *Segments, what string) (got, fresh counts) {
		t.Helper()
		res, rebuilt, err := s.Advance(context.Background())
		if err != nil || rebuilt != "" {
			t.Fatalf("%s: rebuilt %q, %v", what, rebuilt, err)
		}
		want, err := FromSegments(context.Background(), dir, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]analysis.Series{{res.DegMinRTT.Series, want.DegMinRTT.Series}, {res.DegHD.Series, want.DegHD.Series},
			{res.OppMinRTT.Series, want.OppMinRTT.Series}, {res.OppHD.Series, want.OppHD.Series}} {
			if got, want := pair[0], pair[1]; points(got) != points(want) || got.CoveredBytes != want.CoveredBytes || got.TotalBytes != want.TotalBytes {
				t.Fatalf("%s: %v lists %d points, %d/%d bytes covered; a fresh study %d, %d/%d", what, got.Metric,
					points(got), got.CoveredBytes, got.TotalBytes, points(want), want.CoveredBytes, want.TotalBytes)
			}
		}
		if g, w := renderNormalized(t, res), renderNormalized(t, want); !bytes.Equal(g, w) {
			t.Fatalf("%s: report differs from a fresh study's:\n%s", what, firstDiff(g, w))
		}
		got, fresh = compared(res), compared(want)
		if all := (counts{points(want.DegMinRTT.Series), points(want.DegHD.Series), points(want.OppMinRTT.Series), points(want.OppHD.Series), fresh.fig10}); fresh != all || all.degM == 0 || all.fig10 == 0 {
			t.Fatalf("%s: a fresh study compared %+v and lists %+v", what, fresh, all)
		}
		return got, fresh
	}

	land(0)
	s := OpenSegments(dir, Options{Workers: 1, Reg: reg})
	got, day1 := advance(s, "day 1")
	if got != day1 {
		t.Fatalf("day 1: compared %+v, a fresh study %+v", got, day1)
	}
	onReg = got

	land(1)
	got, day2 := advance(s, "day 2")
	t.Logf("day 2 compared %+v; a fresh study %+v, and %+v on day 1", got, day2, day1)
	if got.oppM != day2.oppM-day1.oppM || got.oppH != day2.oppH-day1.oppH || got.fig10 != day2.fig10-day1.fig10 {
		t.Errorf("day 2: compared %+v; the day added %+v", got, counts{oppM: day2.oppM - day1.oppM, oppH: day2.oppH - day1.oppH, fig10: day2.fig10 - day1.fig10})
	}
	if got.degM < day2.degM-day1.degM || got.degM > day2.degM || got.degH < day2.degH-day1.degH || got.degH >= day2.degH {
		t.Errorf("day 2: §5 compared %d and %d points; the day added %d and %d to %d and %d", got.degM, got.degH,
			day2.degM-day1.degM, day2.degH-day1.degH, day2.degM, day2.degH)
	}
	onReg = counts{onReg.degM + got.degM, onReg.degH + got.degH, onReg.oppM + got.oppM, onReg.oppH + got.oppH, onReg.fig10 + got.fig10}

	if got, _ = advance(s, "nothing new"); got != (counts{}) {
		t.Errorf("an advance over nothing new compared %+v", got)
	}
	for name, want := range map[string]int{
		"degradation_minrtt": onReg.degM, "degradation_hdratio": onReg.degH,
		"opportunity_minrtt": onReg.oppM, "opportunity_hdratio": onReg.oppH, "figure10_minrtt": onReg.fig10,
	} {
		if n := reg.Counter(obs.L("analysis_points_compared_total", "analysis", name)).Value(); n != int64(want) {
			t.Errorf("analysis_points_compared_total{analysis=%q} = %d, the advances compared %d", name, n, want)
		}
	}

	// A failed advance drops the results with the sink.
	lastFile := land(2)
	good, err := os.ReadFile(lastFile)
	if err != nil {
		t.Fatal(err)
	}
	rotted := append([]byte(nil), good...)
	rotted[len(rotted)/2] ^= 0xff
	if err := os.WriteFile(lastFile, rotted, 0o666); err != nil {
		t.Fatal(err)
	}
	if res, _, err := s.Advance(context.Background()); !errors.Is(err, segstore.ErrCorrupt) || res != nil {
		t.Fatalf("Advance over a rotted segment: (%v, %v), want ErrCorrupt", res, err)
	}
	if err := os.WriteFile(lastFile, good, 0o666); err != nil {
		t.Fatal(err)
	}
	if got, day3 := advance(s, "day 3, after the failed advance"); got != day3 {
		t.Errorf("after a failed advance: compared %+v, a fresh study %+v", got, day3)
	}

	sharded := OpenSegments(dir, Options{Workers: 3})
	for _, what := range []string{"sharded", "sharded, again"} {
		if got, all := advance(sharded, what); got != all {
			t.Errorf("%s: compared %+v, a fresh study %+v", what, got, all)
		}
	}
}
