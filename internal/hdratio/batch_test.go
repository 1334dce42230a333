package hdratio_test

import (
	"math"
	"testing"

	"repro/internal/hdratio"
	"repro/internal/sample"
	"repro/internal/world"
)

// Ratios must encode exactly what sample.HDratio/SimpleHDratio compute
// row by row: NaN where the row method reports undefined, the identical
// quotient bits where defined.
func TestRatiosMatchRowMethods(t *testing.T) {
	w := world.New(world.Config{Seed: 3, Groups: 5, Days: 1, SessionsPerGroupWindow: 4})
	rows := w.GenerateAll()
	rows = append(rows, sample.Sample{HDTested: 0, HDAchieved: 0, SimpleAchieved: 0})

	var ach, tst, sja []int64
	for _, r := range rows {
		ach = append(ach, int64(r.HDAchieved))
		tst = append(tst, int64(r.HDTested))
		sja = append(sja, int64(r.SimpleAchieved))
	}
	hd := hdratio.Ratios(nil, ach, tst)
	shd := hdratio.Ratios(nil, sja, tst)
	if len(hd) != len(rows) || len(shd) != len(rows) {
		t.Fatalf("Ratios returned %d/%d values for %d rows", len(hd), len(shd), len(rows))
	}
	sawUndefined := false
	for i, r := range rows {
		want, ok := r.HDratio()
		if !ok {
			sawUndefined = true
			if !math.IsNaN(hd[i]) {
				t.Fatalf("row %d: undefined ratio encoded as %v, want NaN", i, hd[i])
			}
		} else if hd[i] != want {
			t.Fatalf("row %d: ratio %v, want %v", i, hd[i], want)
		}
		swant, sok := r.SimpleHDratio()
		if !sok {
			if !math.IsNaN(shd[i]) {
				t.Fatalf("row %d: undefined simple ratio encoded as %v, want NaN", i, shd[i])
			}
		} else if shd[i] != swant {
			t.Fatalf("row %d: simple ratio %v, want %v", i, shd[i], swant)
		}
	}
	if !sawUndefined {
		t.Fatal("fixture never exercised the undefined-ratio case")
	}

	// Appending to a non-empty dst preserves the prefix.
	pre := []float64{42}
	out := hdratio.Ratios(pre, ach[:3], tst[:3])
	if out[0] != 42 || len(out) != 4 {
		t.Fatalf("Ratios with prefix: got %v", out)
	}
}
