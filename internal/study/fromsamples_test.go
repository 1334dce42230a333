package study

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/collector"
	"repro/internal/sample"
	"repro/internal/world"
)

// TestFromSamplesMatchesInProcess: writing the dataset to disk and
// analysing it back must produce the same aggregations as the
// in-process pipeline.
func TestFromSamplesMatchesInProcess(t *testing.T) {
	cfg := world.Config{Seed: 13, Groups: 8, Days: 1, SessionsPerGroupWindow: 6}

	// In-process run.
	direct := Run(cfg)

	// Disk round trip: generate → JSONL → FromStream. The writer sees
	// the raw stream (pre-filter), as cmd/edgesim writes post-filter
	// samples; replicate edgesim exactly: filter first, then write.
	var buf bytes.Buffer
	w := sample.NewWriter(&buf)
	col := collector.New(collector.WriterSink(w))
	world.New(cfg).Generate(col.Offer)
	if err := col.Err(); err != nil {
		t.Fatal(err)
	}

	loaded, err := FromStream(context.Background(), &buf, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	if loaded.Store.TotalSamples != direct.Store.TotalSamples {
		t.Errorf("samples: loaded %d vs direct %d", loaded.Store.TotalSamples, direct.Store.TotalSamples)
	}
	if loaded.Store.Len() != direct.Store.Len() {
		t.Errorf("groups: loaded %d vs direct %d", loaded.Store.Len(), direct.Store.Len())
	}
	if loaded.Cfg.Days != cfg.Days {
		t.Errorf("inferred days = %d, want %d", loaded.Cfg.Days, cfg.Days)
	}
	// Medians agree (identical inputs, identical digests).
	dm := direct.Overview.MinRTT.Quantile(0.5)
	lm := loaded.Overview.MinRTT.Quantile(0.5)
	if dm != lm {
		t.Errorf("overview median: loaded %v vs direct %v", lm, dm)
	}
	// Degradation totals agree.
	if loaded.DegMinRTT.TotalBytes != direct.DegMinRTT.TotalBytes {
		t.Errorf("degradation bytes: loaded %d vs direct %d",
			loaded.DegMinRTT.TotalBytes, direct.DegMinRTT.TotalBytes)
	}
}

func TestFromSamplesEmpty(t *testing.T) {
	res, err := FromStream(context.Background(), bytes.NewReader(nil), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.TotalSamples != 0 || res.Cfg.Days != 1 {
		t.Errorf("empty dataset handled badly: %+v", res.Cfg)
	}
}

// A dataset is one record per line. What is not must be rejected — and
// named by line number — the same way at every worker count: the
// sequential replay used to parse with a json.Decoder, which accepted
// two records on a line and reported no line for a malformed one.
func TestFromSamplesBadInput(t *testing.T) {
	var good bytes.Buffer
	col := collector.New(collector.WriterSink(sample.NewWriter(&good)))
	world.New(world.Config{Seed: 13, Groups: 2, Days: 1, SessionsPerGroupWindow: 2}).Generate(col.Offer)
	lines := strings.SplitAfter(strings.TrimSuffix(good.String(), "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("fixture has only %d lines", len(lines))
	}
	record := strings.TrimSuffix(lines[0], "\n")

	cases := []struct {
		name, data, want string
	}{
		{"malformed first line", "{bad\n", "decoding dataset line 1: "},
		{"malformed third line", lines[0] + lines[1] + "{bad\n" + lines[3], "decoding dataset line 3: "},
		{"two records on one line", record + " " + record + "\n", "decoding dataset line 1: invalid character '{' after top-level value"},
	}
	for _, tc := range cases {
		var seqErr string
		for _, workers := range []int{1, 4} {
			res, err := FromStream(context.Background(), strings.NewReader(tc.data), Options{Workers: workers})
			if err == nil || res != nil {
				t.Fatalf("%s, workers=%d: got (%v, %v), want an error and no results", tc.name, workers, res, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, workers=%d: error %q does not contain %q", tc.name, workers, err, tc.want)
			}
			if workers == 1 {
				seqErr = err.Error()
			} else if err.Error() != seqErr {
				t.Errorf("%s: workers=%d error %q != workers=1 error %q", tc.name, workers, err, seqErr)
			}
		}
	}
}
