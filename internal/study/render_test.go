package study

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sample"
)

// Figure 7's HDratio=0 column is the share of a bucket's sessions at
// exactly zero. A digest read just above the atom (what the column used
// to be) lands up to a centroid off; the count beside the digest cannot.
func TestFig7ZeroShareIsExact(t *testing.T) {
	r := rng.New(7).Child("fig7")
	o := analysis.NewOverview()
	const n = 20_000
	zeros := 0
	for i := 0; i < n; i++ {
		achieved := 0
		if r.Float64() >= 0.405 {
			achieved = 1 + r.IntN(12)
		} else {
			zeros++
		}
		o.Add(sample.Sample{MinRTT: 40 * time.Millisecond, HDTested: 12, HDAchieved: achieved, Proto: sample.HTTP2})
	}
	var buf bytes.Buffer
	(&Results{Overview: o}).writeFig7(&buf)
	want := report.Pct(float64(zeros) / n)
	row := ""
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "31-50ms") {
			row = line
		}
	}
	if fields := strings.Fields(row); len(fields) == 0 || fields[len(fields)-1] != want {
		t.Fatalf("31-50ms row %q: HDratio=0 column should read %s (%d of %d sessions)", row, want, zeros, n)
	}
}
