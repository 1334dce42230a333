package study

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/bgp"
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
	o.Seal()
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

// Rows that tie on the byte count the PoP table and Table 2 sort by
// used to print in map-iteration order. Twenty renders of a tie must be
// one text, in name order.
func TestTiedRowsRenderInNameOrder(t *testing.T) {
	o := analysis.NewOverview()
	for _, pop := range []string{"sin", "ams", "gru", "fra"} {
		o.Add(sample.Sample{PoP: pop, Bytes: 100, MinRTT: 20 * time.Millisecond, Proto: sample.HTTP2})
	}
	o.Seal()
	tbl := analysis.RelationshipTable{TotalBytes: 1000, TotalEventBytes: 90, Pairs: map[analysis.RelPair]*analysis.RelOpportunity{}}
	for _, pref := range []bgp.RelType{bgp.Transit, bgp.PublicPeer, bgp.PrivatePeer} {
		for _, alt := range []bgp.RelType{bgp.Transit, bgp.PublicPeer, bgp.PrivatePeer} {
			tbl.Pairs[analysis.RelPair{Pref: pref, Alt: alt}] = &analysis.RelOpportunity{EventBytes: 10}
		}
	}
	res := &Results{Overview: o, Table2MinRTT: tbl, Table2HD: tbl}

	render := func() string {
		var buf bytes.Buffer
		res.writePoPs(&buf)
		res.writeTable2(&buf)
		return buf.String()
	}
	first := render()
	for i := 1; i < 20; i++ {
		if again := render(); again != first {
			t.Fatalf("render %d differs from the first:\n%s\nvs\n%s", i+1, again, first)
		}
	}
	var names []string
	for _, line := range strings.Split(first, "\n") {
		if f := strings.Fields(line); len(f) == 4 && strings.HasSuffix(f[3], "ms") {
			names = append(names, f[0])
		}
	}
	if got := strings.Join(names, " "); got != "ams fra gru sin" {
		t.Errorf("tied PoPs printed as %q, want name order", got)
	}
	if a, b := strings.Index(first, "Private -> Private"), strings.Index(first, "Transit -> Transit"); a < 0 || b < a {
		t.Errorf("tied relationship pairs not in name order:\n%s", first)
	}
}

// StripElapsed removes every wall-clock line, wherever it sits, and
// counts them, so a caller can insist on exactly one.
func TestStripElapsed(t *testing.T) {
	for _, tc := range []struct {
		in, want string
		n        int
	}{
		{"Dataset: 8 groups\nGenerated and analysed in 1.2s\n\nbody\n", "Dataset: 8 groups\n\nbody\n", 1},
		{"Dataset: 8 groups\n\nbody\n", "Dataset: 8 groups\n\nbody\n", 0},
		{"Generated and analysed in 1s\nGenerated and analysed in 2s\nbody\n", "body\n", 2},
		{"body\nGenerated and analysed in 3s", "body\n", 1},
		{"body mentions Generated and analysed in passing\n", "body mentions Generated and analysed in passing\n", 0},
		{"", "", 0},
	} {
		got, n := StripElapsed([]byte(tc.in))
		if string(got) != tc.want || n != tc.n {
			t.Errorf("StripElapsed(%q) = %q, %d; want %q, %d", tc.in, got, n, tc.want, tc.n)
		}
	}
}
