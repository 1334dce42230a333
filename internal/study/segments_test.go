package study

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/sample"
	"repro/internal/segstore"
	"repro/internal/world"
)

// writeBothFormats renders one dataset as JSONL bytes and as a segment
// directory, the way cmd/edgesim and segcat would.
func writeBothFormats(t *testing.T, cfg world.Config) ([]byte, string) {
	t.Helper()
	var data bytes.Buffer
	w := world.New(cfg)
	col := collector.New(collector.WriterSink(sample.NewWriter(&data)))
	w.Generate(col.Offer)
	if err := col.Err(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ds.seg")
	sw, err := segstore.Create(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := segstore.ConvertJSONL(bytes.NewReader(data.Bytes()), sw, segstore.ConvertOptions{}); err != nil {
		t.Fatal(err)
	}
	return data.Bytes(), dir
}

// The segment path's core guarantee: FromSegments renders a report
// byte-identical to the sequential JSONL replay of the same dataset, at
// every worker count — and with a filter pushed down, byte-identical to
// the filtered JSONL paths.
func TestFromSegmentsReportByteIdentical(t *testing.T) {
	cfg := detCfg()
	cfg.Days = 2 // so the time filter crosses a segment-span boundary
	data, dir := writeBothFormats(t, cfg)

	filters := []*segstore.Filter{
		nil,
		{From: 6 * time.Hour, To: 30 * time.Hour},
		{Countries: []string{"US", "BR"}},
	}
	for _, f := range filters {
		seqRes, err := FromStream(context.Background(), bytes.NewReader(data), Options{Workers: 1, Filter: f})
		if err != nil {
			t.Fatal(err)
		}
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
				t.Fatalf("filter=%v workers=%d: FromSegments report differs from the sequential JSONL replay:\n%s", f, workers, firstDiff(got, seq))
			}
		}

		// The filtered sharded JSONL path must agree too.
		res, err := FromStream(context.Background(), bytes.NewReader(data), Options{Workers: 3, Filter: f})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderNormalized(t, res); !bytes.Equal(got, seq) {
			t.Fatalf("filter=%v: filtered FromStream report differs from the sequential JSONL replay:\n%s", f, firstDiff(got, seq))
		}
	}
}

// Regression (run under -race, as `make race` does): a segment that
// holds user groups of different shards is cut into several views, and
// cutting view N+1 reads the parent's RespEnds[lo-1] — the last row of
// view N, which a shard worker may already be compacting. ingest.columns
// therefore cuts every view before it sends any. Converted and natively
// written datasets hold one user group per segment, so the dataset here
// is packed by row count instead.
func TestFromSegmentsMultiGroupSegmentsRaceFree(t *testing.T) {
	const workers, rowsPerSegment = 2, 4096
	var kept []sample.Sample
	col := collector.New(collector.SliceSink(&kept))
	world.New(detCfg()).Generate(col.Offer)

	dir := filepath.Join(t.TempDir(), "packed.seg")
	sw, err := segstore.Create(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	crossShard := 0
	for id, lo := 0, 0; lo < len(kept); id, lo = id+1, lo+rowsPerSegment {
		rows := kept[lo:min(lo+rowsPerSegment, len(kept))]
		for i := 1; i < len(rows); i++ {
			if rows[i].Key().Hash()%workers != rows[i-1].Key().Hash()%workers {
				crossShard++
			}
		}
		blob, meta := segstore.EncodeSegment(rows)
		if err := sw.Add(id, blob, meta); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Commit(); err != nil {
		t.Fatal(err)
	}
	if crossShard == 0 {
		t.Fatal("no segment holds two user groups of different shards; the views this test exists for are never cut")
	}

	want, err := FromSegments(context.Background(), dir, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromSegments(context.Background(), dir, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := renderNormalized(t, got), renderNormalized(t, want); !bytes.Equal(g, w) {
		t.Fatalf("workers=%d report differs from the sequential oracle:\n%s", workers, firstDiff(g, w))
	}
}
