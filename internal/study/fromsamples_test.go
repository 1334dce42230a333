package study

import (
	"bytes"
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

	// Disk round trip: generate → JSONL → FromSamplesOpt. The writer sees
	// the raw stream (pre-filter), as cmd/edgesim writes post-filter
	// samples; replicate edgesim exactly: filter first, then write.
	var buf bytes.Buffer
	w := sample.NewWriter(&buf)
	col := collector.New(collector.WriterSink(w))
	world.New(cfg).Generate(col.Offer)
	if err := col.Err(); err != nil {
		t.Fatal(err)
	}

	loaded, err := FromSamplesOpt(sample.NewReader(&buf), Options{Workers: 1})
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
	res, err := FromSamplesOpt(sample.NewReader(bytes.NewReader(nil)), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.TotalSamples != 0 || res.Cfg.Days != 1 {
		t.Errorf("empty dataset handled badly: %+v", res.Cfg)
	}
}

func TestFromSamplesBadInput(t *testing.T) {
	if _, err := FromSamplesOpt(sample.NewReader(bytes.NewBufferString("{bad\n")), Options{Workers: 1}); err == nil {
		t.Error("malformed dataset should error")
	}
}
