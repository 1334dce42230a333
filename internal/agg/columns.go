package agg

import (
	"time"

	"repro/internal/bgp"
	"repro/internal/geo"
	"repro/internal/hdratio"
	"repro/internal/sample"
	"repro/internal/segstore"
)

// AddColumns folds one cell's worth of gathered metric columns in —
// the batch counterpart of Add over the same rows, in the same stream
// order. rtt carries one defined value per session; hd and shd carry
// one value per session with NaN where the ratio is undefined (the
// digests skip NaN, exactly as Add skips !ok ratios). Returns the
// digest observations produced, matching the sum Add would return.
func (a *Aggregation) AddColumns(bytes int64, rtt, hd, shd []float64) int {
	a.Sessions += len(rtt)
	a.Bytes += bytes
	adds := a.MinRTT.AddAll(rtt)
	adds += a.HD.AddAll(hd)
	adds += a.SimpleHD.AddAll(shd)
	return adds
}

// altBucket gathers one route's row indexes within a group×window run,
// in stream order.
type altBucket struct {
	alt  int64
	rows []int
}

// batchScratch is AddBatch's reusable gather space: per-route row
// buckets plus the metric columns handed to AddColumns.
type batchScratch struct {
	buckets  []altBucket
	rtt      []float64
	hd, shd  []float64
	hdA, hdT []int64
	sjA      []int64
}

// AddBatch folds a decoded column batch into the store without
// materializing row structs — the hot path of the segment read side.
//
// The work is dispatched in group-key runs (dictionary-index equality)
// and, within a run, window runs; each cell's rows are gathered per
// route and folded with AddColumns. Because every cell owns its
// digests and rows are gathered in stream order, the digest states —
// buffer contents and compaction trigger points — are identical to
// feeding the same rows one at a time through Add, which is what keeps
// batched reports byte-identical to the row oracle.
//
// When the batch provably holds a single group (manifest index or
// decoded dictionaries) and its start bounds fall in one window — true
// for most segments, which are written per group × 24h chunk — the
// per-row dispatch is skipped entirely: one group lookup, one window
// lookup, then straight to the per-route gather.
func (st *Store) AddBatch(b *segstore.ColumnBatch) {
	n := b.Len()
	if n == 0 {
		return
	}
	if key, ok := b.SingleKey(); ok {
		if w := WindowOf(time.Duration(b.StartMin)); w == WindowOf(time.Duration(b.StartMax)) {
			st.addRun(st.group(key, b, 0), w, b, 0, n)
			return
		}
	}
	i := 0
	for i < n {
		end := b.KeyRunEnd(i)
		g := st.group(b.KeyAt(i), b, i)
		for i < end {
			w := WindowOf(time.Duration(b.Start[i]))
			j := i + 1
			for j < end && WindowOf(time.Duration(b.Start[j])) == w {
				j++
			}
			st.addRun(g, w, b, i, j)
			i = j
		}
	}
}

// group returns (creating if needed) the series for key, described by
// the batch's row i.
func (st *Store) group(key sample.GroupKey, b *segstore.ColumnBatch, i int) *GroupSeries {
	g, ok := st.groups[key]
	if !ok {
		g = &GroupSeries{
			Key:       key,
			Continent: geo.Continent(b.Continent.Value(i)),
			ClientAS:  int(b.ClientAS[i]),
			Windows:   make(map[int]*WindowAgg),
			RouteMeta: make(map[int]RouteMeta),
		}
		st.groups[key] = g
		st.gGroups.Set(float64(len(st.groups)))
	}
	return g
}

// addRun folds rows [lo, hi) — all in group g and window w — into the
// store, bucketed per route.
func (st *Store) addRun(g *GroupSeries, w int, b *segstore.ColumnBatch, lo, hi int) {
	wa, ok := g.Windows[w]
	if !ok {
		wa = &WindowAgg{Routes: make(map[int]*Aggregation)}
		g.open(w, wa)
		st.cWindows.Inc()
	}

	// Bucket rows by route in first-appearance order. Route cardinality
	// per cell is tiny (preferred + a few alternates), so a linear scan
	// beats a map.
	bs := &st.bs
	bs.buckets = bs.buckets[:0]
	for i := lo; i < hi; i++ {
		alt := b.AltIndex[i]
		found := false
		for k := range bs.buckets {
			if bs.buckets[k].alt == alt {
				bs.buckets[k].rows = append(bs.buckets[k].rows, i)
				found = true
				break
			}
		}
		if !found {
			// Re-extend into capacity when possible so the per-bucket rows
			// buffers survive across runs.
			if len(bs.buckets) < cap(bs.buckets) {
				bs.buckets = bs.buckets[:len(bs.buckets)+1]
			} else {
				bs.buckets = append(bs.buckets, altBucket{})
			}
			bk := &bs.buckets[len(bs.buckets)-1]
			bk.alt = alt
			bk.rows = append(bk.rows[:0], i)
		}
	}

	for k := range bs.buckets {
		cb := &bs.buckets[k]
		alt := int(cb.alt)
		if _, ok := g.RouteMeta[alt]; !ok {
			f := cb.rows[0]
			g.RouteMeta[alt] = RouteMeta{
				ID:        b.Route.Value(f),
				Rel:       bgp.RelType(b.RouteRel[f]),
				ASPathLen: int(b.ASPathLen[f]),
				Prepended: b.Prepended[f],
			}
		}
		a, ok := wa.Routes[alt]
		if !ok {
			a = newAggregation()
			wa.Routes[alt] = a
			st.cells++
		}

		bs.rtt = bs.rtt[:0]
		bs.hdA, bs.hdT, bs.sjA = bs.hdA[:0], bs.hdT[:0], bs.sjA[:0]
		var bytes int64
		for _, i := range cb.rows {
			bs.rtt = append(bs.rtt, float64(b.MinRTT[i])/float64(time.Millisecond))
			bs.hdA = append(bs.hdA, b.HDAchieved[i])
			bs.hdT = append(bs.hdT, b.HDTested[i])
			bs.sjA = append(bs.sjA, b.SimpleAchieved[i])
			bytes += b.Bytes[i]
		}
		bs.hd = hdratio.Ratios(bs.hd[:0], bs.hdA, bs.hdT)
		bs.shd = hdratio.Ratios(bs.shd[:0], bs.sjA, bs.hdT)
		st.cDigestAdds.Add(int64(a.AddColumns(bytes, bs.rtt, bs.hd, bs.shd)))
		if alt == 0 {
			g.PreferredBytes += bytes
		}
	}

	if w+1 > st.TotalWindows {
		st.TotalWindows = w + 1
	}
	if st.firstWindow < 0 || w < st.firstWindow {
		st.firstWindow = w
	}
	st.TotalSamples += hi - lo
}
