package hdratio

import "math"

// Ratios computes per-session HD ratios from parallel achieved/tested
// count columns, appending to dst and returning it. A session with no
// testable transactions (tested == 0) has no defined ratio and yields
// NaN — the column-path encoding of sample.Sample.HDratio's (0, false).
// Defined ratios are float64(achieved)/float64(tested), the exact
// expression the row path evaluates, so downstream digests see
// bit-identical values.
func Ratios(dst []float64, achieved, tested []int64) []float64 {
	for i := range tested {
		if tested[i] == 0 {
			dst = append(dst, math.NaN())
			continue
		}
		dst = append(dst, float64(achieved[i])/float64(tested[i]))
	}
	return dst
}
