package study

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/world"
)

// detCfg is small enough for -race yet dense enough that every stage
// (filter, aggregation, classification, tables) has real work: ~45k
// samples over 17 groups with populated alternate routes.
func detCfg() world.Config {
	return world.Config{Seed: 1234, Groups: 17, Days: 1, SessionsPerGroupWindow: 28}
}

// renderNormalized renders the full report with the wall-clock line
// neutralised — Elapsed is the one field that legitimately differs
// between two runs of the same study.
func renderNormalized(t *testing.T, r *Results) []byte {
	t.Helper()
	r.Elapsed = 0
	var b bytes.Buffer
	r.WriteReport(&b)
	return b.Bytes()
}

// The tentpole guarantee: the pipeline's rendered report is
// byte-identical at every worker count on the same seed (workers 1 is
// one generate worker and one shard). Everything feeds this — per-group
// order preservation in generation, key-partitioned shard stores, the
// exact store merge, and the Overview's per-group folds.
func TestShardedRunReportByteIdentical(t *testing.T) {
	seqRes, err := RunCtx(context.Background(), detCfg(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	seq := renderNormalized(t, seqRes)
	if len(seq) == 0 {
		t.Fatal("sequential report is empty")
	}
	for _, workers := range []int{2, 4, 7} {
		res, err := RunCtx(context.Background(), detCfg(), Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Collector != seqRes.Collector {
			t.Errorf("workers=%d: collector stats %+v != sequential %+v", workers, res.Collector, seqRes.Collector)
		}
		got := renderNormalized(t, res)
		if !bytes.Equal(got, seq) {
			t.Fatalf("workers=%d report differs from sequential:\n%s", workers, firstDiff(got, seq))
		}
	}
}

// The legacy Run entry point (one worker, nothing attached) must agree
// with the multi-worker pipeline — it remains the API the examples and
// benchmarks use.
func TestLegacyRunMatchesPipeline(t *testing.T) {
	legacy := Run(detCfg())
	piped, err := RunCtx(context.Background(), detCfg(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderNormalized(t, legacy), renderNormalized(t, piped)) {
		t.Fatal("legacy Run report differs from sharded pipeline report")
	}
}

// firstDiff renders the first differing line for debuggable failures.
func firstDiff(got, want []byte) string {
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return "line " + itoa(i+1) + ":\n  got:  " + string(gl[i]) + "\n  want: " + string(wl[i])
		}
	}
	return "line counts differ: got " + itoa(len(gl)) + ", want " + itoa(len(wl))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
