// Package agg implements the paper's aggregation scheme (§3.3): samples
// are grouped into user groups (PoP × BGP prefix × client country) and
// 15-minute time windows, separately per egress route, and summarised
// with streaming t-digests so that medians (MinRTTP50, HDratioP50) and
// distribution-free confidence intervals can be computed without
// retaining raw samples — the same property the paper highlights for
// production traffic-engineering pipelines (§3.4.1, footnote 11).
//
// Aggregations are weighted by traffic volume when reported (§3.3):
// prefixes are arbitrary units of address space, so results are stated
// as fractions of bytes delivered, not fractions of prefixes.
package agg

import (
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/bgp"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/tdigest"
)

// WindowDuration is the aggregation window length (§3.3).
const WindowDuration = 15 * time.Minute

// Compression is the t-digest compression used per aggregation.
const Compression = 100

// Tightness thresholds for valid comparisons (§3.4.1): confidence
// intervals wider than these invalidate the window.
const (
	MaxCIWidthMinRTTMs = 10.0
	MaxCIWidthHDratio  = 0.1
)

// Aggregation summarises one (group, window, route) cell.
type Aggregation struct {
	// MinRTT holds per-session MinRTT in milliseconds.
	MinRTT *tdigest.TDigest
	// HD holds per-session HDratio for sessions that tested (§3.2.4).
	HD *tdigest.TDigest
	// SimpleHD holds the §4 ablation baseline's HDratio.
	SimpleHD *tdigest.TDigest
	// Sessions counts sessions aggregated.
	Sessions int
	// Bytes is the traffic volume carried by those sessions.
	Bytes int64
}

func newAggregation() *Aggregation {
	return &Aggregation{
		MinRTT:   tdigest.New(Compression),
		HD:       tdigest.New(Compression),
		SimpleHD: tdigest.New(Compression),
	}
}

// Add folds one sample in and returns how many digest observations it
// produced (MinRTT always; HD/SimpleHD only for tested sessions).
func (a *Aggregation) Add(s sample.Sample) int {
	a.Sessions++
	a.Bytes += s.Bytes
	a.MinRTT.Add(float64(s.MinRTT) / float64(time.Millisecond))
	adds := 1
	if hd, ok := s.HDratio(); ok {
		a.HD.Add(hd)
		adds++
	}
	if shd, ok := s.SimpleHDratio(); ok {
		a.SimpleHD.Add(shd)
		adds++
	}
	return adds
}

// MinRTTP50 returns the median MinRTT in milliseconds.
func (a *Aggregation) MinRTTP50() float64 { return a.MinRTT.Quantile(0.5) }

// HDratioP50 returns the median HDratio across tested sessions.
func (a *Aggregation) HDratioP50() float64 { return a.HD.Quantile(0.5) }

// HasMinSamples reports whether the aggregation meets the §3.4.1 floor.
func (a *Aggregation) HasMinSamples() bool { return a.Sessions >= stats.MinSamples }

// RouteMeta describes a route as seen on samples, for the relationship
// analyses (§6.3, Table 2).
type RouteMeta struct {
	ID        string
	Rel       bgp.RelType
	ASPathLen int
	Prepended bool
}

// WindowAgg holds one group's aggregations for a window, per route
// (index 0 = preferred, 1+ = alternates).
type WindowAgg struct {
	Routes map[int]*Aggregation
}

// Route returns the aggregation for a route index, or nil.
func (w *WindowAgg) Route(alt int) *Aggregation {
	if w == nil {
		return nil
	}
	return w.Routes[alt]
}

// GroupSeries is a user group's full time series.
type GroupSeries struct {
	Key       sample.GroupKey
	Continent geo.Continent
	ClientAS  int

	// Windows maps window index → aggregations.
	Windows map[int]*WindowAgg
	// RouteMeta maps route index → route description.
	RouteMeta map[int]RouteMeta
	// PreferredBytes is total traffic on the preferred route, the
	// group's weight in traffic-share reports.
	PreferredBytes int64

	// wins is Windows' keys, ascending: kept by open, which every ingest
	// path opens a window through. A map filled by hand leaves it short,
	// and WindowIndexes rebuilds it.
	wins []int
}

// TotalSessions counts the sessions aggregated across every window and
// route of the series — the store's sample count attributable to this
// group (integer sums over map ranges are order-independent).
func (g *GroupSeries) TotalSessions() int {
	n := 0
	for _, wa := range g.Windows {
		for _, a := range wa.Routes {
			n += a.Sessions
		}
	}
	return n
}

// WindowIndexes returns the group's populated windows, ascending. The
// slice is the series' own index, not a copy: callers only read it, and
// a window opened later may move what it shows — take it again after
// the store has taken samples. A series whose Windows map was filled by
// hand is indexed here, on first use.
func (g *GroupSeries) WindowIndexes() []int {
	if len(g.wins) != len(g.Windows) {
		g.wins = g.wins[:0]
		for w := range g.Windows {
			g.wins = append(g.wins, w)
		}
		sort.Ints(g.wins)
	}
	return g.wins
}

// open adds window win, which the series must not hold yet, and keeps
// the index ascending: an append when win is past the last window — a
// stream in time order, every ingest path's common case — and a
// binary-search insert otherwise.
func (g *GroupSeries) open(win int, wa *WindowAgg) {
	g.Windows[win] = wa
	if n := len(g.wins); n == 0 || win > g.wins[n-1] {
		g.wins = append(g.wins, win)
		return
	}
	i := sort.SearchInts(g.wins, win)
	g.wins = append(g.wins, 0)
	copy(g.wins[i+1:], g.wins[i:])
	g.wins[i] = win
}

// cells counts the series' (window, route) cells.
func (g *GroupSeries) cells() int {
	n := 0
	for _, wa := range g.Windows {
		n += len(wa.Routes)
	}
	return n
}

// Store aggregates a sample stream.
type Store struct {
	groups map[sample.GroupKey]*GroupSeries
	// TotalWindows is the highest window index seen + 1.
	TotalWindows int
	// TotalSamples counts samples aggregated.
	TotalSamples int
	// firstWindow is the lowest window index seen, -1 while empty. Like
	// TotalWindows it describes the observation period, so Remove leaves
	// it untouched.
	firstWindow int
	// cells counts the (group, window, route) cells held, where they are
	// opened, adopted and withdrawn.
	cells int

	// bs is the AddBatch gather scratch (see columns.go) — reused across
	// batches; a store is single-goroutine during ingest.
	bs batchScratch

	// Pre-resolved obs handles; nil (no-op) until Instrument is called.
	cWindows    *obs.Counter
	cDigestAdds *obs.Counter
	gGroups     *obs.Gauge
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{groups: make(map[sample.GroupKey]*GroupSeries), firstWindow: -1}
}

// FirstWindow returns the lowest window index seen, 0 when empty. With
// TotalWindows it bounds the actually-covered window range — the
// difference is what a time-filtered run's day count must be inferred
// from, since a -from filter prunes the leading windows and rounding
// TotalWindows alone would overcount days.
func (st *Store) FirstWindow() int {
	if st.firstWindow < 0 {
		return 0
	}
	return st.firstWindow
}

// Instrument registers aggregation metrics on reg: (group, window)
// cells opened, t-digest observations merged, and the number of user
// groups tracked. The per-sample cost is a single atomic add. A nil
// registry leaves the store uninstrumented.
func (st *Store) Instrument(reg *obs.Registry) {
	st.cWindows = reg.Counter("agg_window_cells_total")
	st.cDigestAdds = reg.Counter("agg_digest_adds_total")
	st.gGroups = reg.Gauge("agg_groups")
}

// WindowOf returns the window index for a sample start time.
func WindowOf(start time.Duration) int { return int(start / WindowDuration) }

// Add folds one sample into the store.
func (st *Store) Add(s sample.Sample) {
	key := s.Key()
	g, ok := st.groups[key]
	if !ok {
		g = &GroupSeries{
			Key:       key,
			Continent: s.Continent,
			ClientAS:  s.ClientAS,
			Windows:   make(map[int]*WindowAgg),
			RouteMeta: make(map[int]RouteMeta),
		}
		st.groups[key] = g
		st.gGroups.Set(float64(len(st.groups)))
	}
	if _, ok := g.RouteMeta[s.AltIndex]; !ok {
		g.RouteMeta[s.AltIndex] = RouteMeta{
			ID: s.RouteID, Rel: s.RouteRel, ASPathLen: s.ASPathLen, Prepended: s.Prepended,
		}
	}
	win := WindowOf(s.Start)
	wa, ok := g.Windows[win]
	if !ok {
		wa = &WindowAgg{Routes: make(map[int]*Aggregation)}
		g.open(win, wa)
		st.cWindows.Inc()
	}
	a, ok := wa.Routes[s.AltIndex]
	if !ok {
		a = newAggregation()
		wa.Routes[s.AltIndex] = a
		st.cells++
	}
	st.cDigestAdds.Add(int64(a.Add(s)))
	if s.AltIndex == 0 {
		g.PreferredBytes += s.Bytes
	}
	if win+1 > st.TotalWindows {
		st.TotalWindows = win + 1
	}
	if st.firstWindow < 0 || win < st.firstWindow {
		st.firstWindow = win
	}
	st.TotalSamples++
}

// Remove withdraws one group series from the store and returns it (nil
// if absent) — the quarantine primitive: a poisoned group is isolated
// from aggregation instead of failing the run, and the returned series
// lets the caller account for every sample withdrawn. TotalWindows is
// deliberately left untouched: the run's window axis is a property of
// the observation period, not of which groups survived it.
func (st *Store) Remove(key sample.GroupKey) *GroupSeries {
	g, ok := st.groups[key]
	if !ok {
		return nil
	}
	delete(st.groups, key)
	st.TotalSamples -= g.TotalSessions()
	st.cells -= g.cells()
	st.gGroups.Set(float64(len(st.groups)))
	return g
}

// Merge folds other into st — the §3.4.1 mergeable-aggregation
// property: shard-local stores built from a partitioned sample stream
// combine into the global store. Group series present in only one
// store are adopted wholesale (the common case when the stream was
// sharded by user group, where the merge is exact and byte-identical
// to sequential ingestion); series present in both are folded cell by
// cell through the t-digest merge path, which preserves counts and
// bytes exactly and quantiles within compression tolerance.
//
// other must not be used afterwards: its group series are owned by st.
func (st *Store) Merge(other *Store) {
	if other == nil {
		return
	}
	for key, og := range other.groups {
		g, ok := st.groups[key]
		if !ok {
			st.groups[key] = og
			continue
		}
		st.cells -= g.merge(og)
	}
	st.cells += other.cells
	if other.TotalWindows > st.TotalWindows {
		st.TotalWindows = other.TotalWindows
	}
	if other.firstWindow >= 0 && (st.firstWindow < 0 || other.firstWindow < st.firstWindow) {
		st.firstWindow = other.firstWindow
	}
	st.TotalSamples += other.TotalSamples
	st.gGroups.Set(float64(len(st.groups)))
}

// merge folds another series for the same group key into g and returns
// how many of o's cells folded into cells g already held (the rest were
// adopted).
func (g *GroupSeries) merge(o *GroupSeries) (folded int) {
	for win, owa := range o.Windows {
		wa, ok := g.Windows[win]
		if !ok {
			g.open(win, owa)
			continue
		}
		for alt, oa := range owa.Routes {
			a, ok := wa.Routes[alt]
			if !ok {
				wa.Routes[alt] = oa
				continue
			}
			a.Merge(oa)
			folded++
		}
	}
	for alt, meta := range o.RouteMeta {
		if _, ok := g.RouteMeta[alt]; !ok {
			g.RouteMeta[alt] = meta
		}
	}
	g.PreferredBytes += o.PreferredBytes
	return folded
}

// Merge folds another aggregation of the same (group, window, route)
// cell into a. Sessions and Bytes are exact; digests merge within
// compression tolerance.
func (a *Aggregation) Merge(o *Aggregation) {
	if o == nil {
		return
	}
	a.Sessions += o.Sessions
	a.Bytes += o.Bytes
	a.MinRTT.Merge(o.MinRTT)
	a.HD.Merge(o.HD)
	a.SimpleHD.Merge(o.SimpleHD)
}

// Seal compacts every digest in the store (with up to workers
// goroutines, clamped to the group count) so that subsequent reads —
// Quantile, CDF, the §5/§6 analyses — are pure and safe to run
// concurrently over a shared store. Digest reads fold buffered points
// lazily, so an unsealed store must not be shared across goroutines.
func (st *Store) Seal(workers int) {
	groups := make([]*GroupSeries, 0, len(st.groups))
	for _, g := range st.groups {
		groups = append(groups, g)
	}
	// Seal work order is observable through per-digest compaction
	// metrics; sort so it does not depend on map iteration order.
	slices.SortFunc(groups, func(a, b *GroupSeries) int { return a.Key.Compare(b.Key) })
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 {
		for _, g := range groups {
			g.seal()
		}
		return
	}
	idx := make(chan *GroupSeries, len(groups))
	for _, g := range groups {
		idx <- g
	}
	close(idx)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range idx {
				g.seal()
			}
		}()
	}
	wg.Wait()
}

// seal compacts every digest of one group series.
func (g *GroupSeries) seal() {
	for _, wa := range g.Windows {
		for _, a := range wa.Routes {
			a.MinRTT.Compact()
			a.HD.Compact()
			a.SimpleHD.Compact()
		}
	}
}

// Groups returns the group series, sorted by key for determinism.
func (st *Store) Groups() []*GroupSeries {
	out := make([]*GroupSeries, 0, len(st.groups))
	for _, g := range st.groups {
		out = append(out, g)
	}
	slices.SortFunc(out, func(a, b *GroupSeries) int { return a.Key.Compare(b.Key) })
	return out
}

// Group looks up one series.
func (st *Store) Group(key sample.GroupKey) *GroupSeries { return st.groups[key] }

// Len returns the number of groups.
func (st *Store) Len() int { return len(st.groups) }

// Cells returns the number of (group, window, route) cells the store
// holds: a count kept where cells are opened, not a walk.
func (st *Store) Cells() int { return st.cells }

// TotalPreferredBytes sums preferred-route traffic across groups — the
// denominator for traffic-share reports.
func (st *Store) TotalPreferredBytes() int64 {
	var t int64
	for _, g := range st.groups {
		t += g.PreferredBytes
	}
	return t
}

// CoverageFraction returns the share of windows with traffic for a
// group; groups below the §3.4.2 coverage floor (60%) are not
// classified.
func (g *GroupSeries) CoverageFraction(totalWindows int) float64 {
	if totalWindows == 0 {
		return 0
	}
	return float64(len(g.Windows)) / float64(totalWindows)
}
