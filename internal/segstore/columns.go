package segstore

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bgp"
	"repro/internal/geo"
	"repro/internal/sample"
)

// DictColumn is a dictionary-encoded string column: the distinct values
// in first-appearance order plus one index per row. Dictionary entries
// are unique, so two rows carry equal strings iff their indexes are
// equal — which is what lets group-dispatch compare rows without
// touching string bytes.
type DictColumn struct {
	Dict []string
	Idx  []uint32
}

// Value returns row i's string.
func (c *DictColumn) Value(i int) string { return c.Dict[c.Idx[i]] }

// Single returns the column's only value when the dictionary holds
// exactly one entry — the column-level constant-ness proof.
func (c *DictColumn) Single() (string, bool) {
	if len(c.Dict) == 1 {
		return c.Dict[0], true
	}
	return "", false
}

// ColumnBatch is a decoded segment as typed column slices sharing one
// row axis — the currency of the columnar read path. Consumers iterate
// columns directly (aggregation, overview folds, filters) instead of
// materializing sample.Sample row structs; AppendRows exists for the
// row-oracle paths and for consumers that genuinely need rows (the
// per-sample fault guard).
//
// Response-size lists are flattened: row i's values live in
// RespVals[start:RespEnds[i]] where start is RespEnds[i-1] (or the
// batch's base offset for row 0) — see RespSpan.
//
// Ownership: batches emitted by Reader.ScanColumns come from a pool and
// must be released (Release) exactly once by the consumer; Slice views
// hold a reference on their parent and are released the same way.
type ColumnBatch struct {
	n int

	SessionID []uint64
	PoP       DictColumn
	Prefix    DictColumn
	ClientAS  []int64
	Country   DictColumn
	Continent DictColumn
	// ClientSubnet carries the sample's uint8 subnet index widened to the
	// shared int64 column type.
	ClientSubnet   []int64
	Proto          DictColumn
	DistanceKm     []float64
	CrossContinent []bool
	Route          DictColumn
	RouteRel       []int64
	ASPathLen      []int64
	Prepended      []bool
	AltIndex       []int64
	// Start holds session start offsets in nanoseconds from the dataset
	// epoch (time.Duration widened to int64).
	Start           []int64
	Duration        []int64
	BusyFraction    []float64
	Bytes           []int64
	Transactions    []int64
	RespEnds        []int
	RespVals        []int64
	MediaEndpoint   []bool
	MinRTT          []int64
	HDTested        []int64
	HDAchieved      []int64
	SimpleAchieved  []int64
	HostingProvider []bool

	// StartMin/StartMax bound the rows' Start values (valid when Len>0);
	// with the single-group proof they are the pre-aggregation hint: a
	// batch whose bounds fall in one 15-minute window needs no per-row
	// window dispatch. Filtering keeps the bounds valid (it re-tightens
	// them), so they never claim a narrower span than the rows cover.
	StartMin, StartMax int64
	// StartsSorted reports that Start ascends — segments are written in
	// stream order, so this is the common case.
	StartsSorted bool
	// singleGroup is the manifest-level single-group proof (set by the
	// scanner from SegmentMeta.SingleGroup); SingleKey also accepts the
	// decoded dictionaries' own evidence.
	singleGroup bool

	// respFirst is the RespVals offset of row 0 — zero for owned batches,
	// the parent's span start for Slice views.
	respFirst int

	// Pool plumbing: an owned batch recycles through pool when refs hits
	// zero; a view forwards its release to parent instead. view marks a
	// batch born from Slice for the whole of its life — unlike parent it
	// survives the final release, so late double releases are counted
	// (leakcheck.go) rather than silently treated as plain batches.
	refs   atomic.Int32
	pool   *sync.Pool
	parent *ColumnBatch
	view   bool
}

// Len returns the row count.
func (b *ColumnBatch) Len() int { return b.n }

// RespSpan returns the RespVals range holding row i's response sizes.
func (b *ColumnBatch) RespSpan(i int) (lo, hi int) {
	lo = b.respFirst
	if i > 0 {
		lo = b.RespEnds[i-1]
	}
	return lo, b.RespEnds[i]
}

// KeyAt returns row i's user group. The strings are shared with the
// dictionaries — no allocation.
func (b *ColumnBatch) KeyAt(i int) sample.GroupKey {
	return sample.GroupKey{PoP: b.PoP.Value(i), Prefix: b.Prefix.Value(i), Country: b.Country.Value(i)}
}

// SingleKey returns the batch's only user group when every row provably
// shares one — via the manifest's single-group index or the decoded
// dictionaries (each O(1) — no row scan).
func (b *ColumnBatch) SingleKey() (sample.GroupKey, bool) {
	if b.n == 0 {
		return sample.GroupKey{}, false
	}
	if !b.singleGroup && (len(b.PoP.Dict) != 1 || len(b.Prefix.Dict) != 1 || len(b.Country.Dict) != 1) {
		return sample.GroupKey{}, false
	}
	return b.KeyAt(0), true
}

// KeyRunEnd returns the end (exclusive) of the run of rows sharing row
// start's user group — the group-dispatch unit. Dictionary indexes
// compare in place of strings.
func (b *ColumnBatch) KeyRunEnd(start int) int {
	if b.singleGroup {
		return b.n
	}
	p, x, c := b.PoP.Idx[start], b.Prefix.Idx[start], b.Country.Idx[start]
	i := start + 1
	for i < b.n && b.PoP.Idx[i] == p && b.Prefix.Idx[i] == x && b.Country.Idx[i] == c {
		i++
	}
	return i
}

// Slice returns a view of rows [lo, hi) sharing b's backing arrays. The
// view holds a reference on b: release both (the view when its consumer
// is done, b when the slicer is done). Views may be compacted — their
// row ranges are disjoint regions of the parent, so sibling views stay
// untouched — but must not outlive the parent's final release.
func (b *ColumnBatch) Slice(lo, hi int) *ColumnBatch {
	root := b
	if root.parent != nil {
		root = root.parent
	}
	root.retain()
	v := &ColumnBatch{
		n:         hi - lo,
		SessionID: b.SessionID[lo:hi],
		PoP:       DictColumn{Dict: b.PoP.Dict, Idx: b.PoP.Idx[lo:hi]},
		Prefix:    DictColumn{Dict: b.Prefix.Dict, Idx: b.Prefix.Idx[lo:hi]},
		ClientAS:  b.ClientAS[lo:hi],
		Country:   DictColumn{Dict: b.Country.Dict, Idx: b.Country.Idx[lo:hi]},
		Continent: DictColumn{Dict: b.Continent.Dict, Idx: b.Continent.Idx[lo:hi]},

		ClientSubnet:   b.ClientSubnet[lo:hi],
		Proto:          DictColumn{Dict: b.Proto.Dict, Idx: b.Proto.Idx[lo:hi]},
		DistanceKm:     b.DistanceKm[lo:hi],
		CrossContinent: b.CrossContinent[lo:hi],
		Route:          DictColumn{Dict: b.Route.Dict, Idx: b.Route.Idx[lo:hi]},
		RouteRel:       b.RouteRel[lo:hi],
		ASPathLen:      b.ASPathLen[lo:hi],
		Prepended:      b.Prepended[lo:hi],
		AltIndex:       b.AltIndex[lo:hi],
		Start:          b.Start[lo:hi],
		Duration:       b.Duration[lo:hi],
		BusyFraction:   b.BusyFraction[lo:hi],
		Bytes:          b.Bytes[lo:hi],
		Transactions:   b.Transactions[lo:hi],
		RespEnds:       b.RespEnds[lo:hi],
		RespVals:       b.RespVals,

		MediaEndpoint:   b.MediaEndpoint[lo:hi],
		MinRTT:          b.MinRTT[lo:hi],
		HDTested:        b.HDTested[lo:hi],
		HDAchieved:      b.HDAchieved[lo:hi],
		SimpleAchieved:  b.SimpleAchieved[lo:hi],
		HostingProvider: b.HostingProvider[lo:hi],

		StartsSorted: b.StartsSorted,
		singleGroup:  b.singleGroup,
		parent:       root,
		view:         true,
	}
	v.refs.Store(1)
	if v.n > 0 {
		v.respFirst, _ = b.RespSpan(lo)
		v.StartMin, v.StartMax = b.StartMin, b.StartMax
	}
	return v
}

// retain adds one reference (owned batches only).
func (b *ColumnBatch) retain() { b.refs.Add(1) }

// Release drops one reference. An owned batch returns to its scan pool
// on the last release; a view forwards to its parent. Releasing a batch
// that is neither pooled nor a view is a no-op, so consumers may always
// release what they were handed.
//
// Releasing the same batch or view twice is a protocol violation: it
// used to no-op silently for views (while the view still aliased
// recycled parent arrays) and to corrupt pool accounting for owned
// batches. Both are now counted (LeakStats) so tests fail loudly, and
// the extra release is absorbed rather than forwarded.
func (b *ColumnBatch) Release() {
	if b.view {
		if b.refs.Add(-1) != 0 {
			doubleReleases.Add(1)
			return
		}
		p := b.parent
		b.parent = nil
		p.Release()
		return
	}
	if b.pool == nil {
		return
	}
	switch n := b.refs.Add(-1); {
	case n == 0:
		outstanding.Add(-1)
		if leakPoison.Load() {
			b.poison()
		}
		b.pool.Put(b)
	case n < 0:
		doubleReleases.Add(1)
		b.refs.Add(1) // clamp: don't let later retains inherit the skew
	}
}

// Compact drops every row i with keep(i) == false, in place, and
// returns the surviving row count. Order is preserved; the start bounds
// are re-tightened over the survivors. On a Slice view the compaction
// writes stay inside the view's region of the parent, so sibling views
// are unaffected.
func (b *ColumnBatch) Compact(keep func(i int) bool) int {
	if b.n == 0 {
		return 0
	}
	k := 0
	respOut, _ := b.RespSpan(0)
	first := true
	for i := 0; i < b.n; i++ {
		if !keep(i) {
			continue
		}
		lo, hi := b.RespSpan(i)
		if k != i {
			b.SessionID[k] = b.SessionID[i]
			b.PoP.Idx[k] = b.PoP.Idx[i]
			b.Prefix.Idx[k] = b.Prefix.Idx[i]
			b.ClientAS[k] = b.ClientAS[i]
			b.Country.Idx[k] = b.Country.Idx[i]
			b.Continent.Idx[k] = b.Continent.Idx[i]
			b.ClientSubnet[k] = b.ClientSubnet[i]
			b.Proto.Idx[k] = b.Proto.Idx[i]
			b.DistanceKm[k] = b.DistanceKm[i]
			b.CrossContinent[k] = b.CrossContinent[i]
			b.Route.Idx[k] = b.Route.Idx[i]
			b.RouteRel[k] = b.RouteRel[i]
			b.ASPathLen[k] = b.ASPathLen[i]
			b.Prepended[k] = b.Prepended[i]
			b.AltIndex[k] = b.AltIndex[i]
			b.Start[k] = b.Start[i]
			b.Duration[k] = b.Duration[i]
			b.BusyFraction[k] = b.BusyFraction[i]
			b.Bytes[k] = b.Bytes[i]
			b.Transactions[k] = b.Transactions[i]
			b.MediaEndpoint[k] = b.MediaEndpoint[i]
			b.MinRTT[k] = b.MinRTT[i]
			b.HDTested[k] = b.HDTested[i]
			b.HDAchieved[k] = b.HDAchieved[i]
			b.SimpleAchieved[k] = b.SimpleAchieved[i]
			b.HostingProvider[k] = b.HostingProvider[i]
		}
		// Response spans move down independently of the row copy: earlier
		// dropped rows leave a gap in RespVals even when k == i holds later.
		respOut += copy(b.RespVals[respOut:], b.RespVals[lo:hi])
		b.RespEnds[k] = respOut
		if first || b.Start[k] < b.StartMin {
			b.StartMin = b.Start[k]
		}
		if first || b.Start[k] > b.StartMax {
			b.StartMax = b.Start[k]
		}
		first = false
		k++
	}
	b.n = k
	b.truncate(k)
	return k
}

// truncate shortens every row-axis slice to n rows.
func (b *ColumnBatch) truncate(n int) {
	b.SessionID = b.SessionID[:n]
	b.PoP.Idx = b.PoP.Idx[:n]
	b.Prefix.Idx = b.Prefix.Idx[:n]
	b.ClientAS = b.ClientAS[:n]
	b.Country.Idx = b.Country.Idx[:n]
	b.Continent.Idx = b.Continent.Idx[:n]
	b.ClientSubnet = b.ClientSubnet[:n]
	b.Proto.Idx = b.Proto.Idx[:n]
	b.DistanceKm = b.DistanceKm[:n]
	b.CrossContinent = b.CrossContinent[:n]
	b.Route.Idx = b.Route.Idx[:n]
	b.RouteRel = b.RouteRel[:n]
	b.ASPathLen = b.ASPathLen[:n]
	b.Prepended = b.Prepended[:n]
	b.AltIndex = b.AltIndex[:n]
	b.Start = b.Start[:n]
	b.Duration = b.Duration[:n]
	b.BusyFraction = b.BusyFraction[:n]
	b.Bytes = b.Bytes[:n]
	b.Transactions = b.Transactions[:n]
	b.RespEnds = b.RespEnds[:n]
	b.MediaEndpoint = b.MediaEndpoint[:n]
	b.MinRTT = b.MinRTT[:n]
	b.HDTested = b.HDTested[:n]
	b.HDAchieved = b.HDAchieved[:n]
	b.SimpleAchieved = b.SimpleAchieved[:n]
	b.HostingProvider = b.HostingProvider[:n]
}

// AppendRows materializes the batch as sample.Sample rows appended to
// dst — the bridge back to the row world (oracle paths, JSONL export,
// the per-sample fault guard). ResponseBytes slices are freshly
// allocated, so appended rows stay valid after the batch is released;
// dictionary strings are shared (strings are immutable).
func (b *ColumnBatch) AppendRows(dst []sample.Sample) []sample.Sample {
	for i := 0; i < b.n; i++ {
		var resp []int64
		if lo, hi := b.RespSpan(i); hi > lo {
			resp = append([]int64(nil), b.RespVals[lo:hi]...)
		}
		dst = append(dst, sample.Sample{
			SessionID:       b.SessionID[i],
			PoP:             b.PoP.Value(i),
			Prefix:          b.Prefix.Value(i),
			ClientAS:        int(b.ClientAS[i]),
			Country:         b.Country.Value(i),
			Continent:       geo.Continent(b.Continent.Value(i)),
			ClientSubnet:    uint8(b.ClientSubnet[i]),
			Proto:           sample.Protocol(b.Proto.Value(i)),
			DistanceKm:      b.DistanceKm[i],
			CrossContinent:  b.CrossContinent[i],
			RouteID:         b.Route.Value(i),
			RouteRel:        bgp.RelType(b.RouteRel[i]),
			ASPathLen:       int(b.ASPathLen[i]),
			Prepended:       b.Prepended[i],
			AltIndex:        int(b.AltIndex[i]),
			Start:           time.Duration(b.Start[i]),
			Duration:        time.Duration(b.Duration[i]),
			BusyFraction:    b.BusyFraction[i],
			Bytes:           b.Bytes[i],
			Transactions:    int(b.Transactions[i]),
			ResponseBytes:   resp,
			MediaEndpoint:   b.MediaEndpoint[i],
			MinRTT:          time.Duration(b.MinRTT[i]),
			HDTested:        int(b.HDTested[i]),
			HDAchieved:      int(b.HDAchieved[i]),
			SimpleAchieved:  int(b.SimpleAchieved[i]),
			HostingProvider: b.HostingProvider[i],
		})
	}
	return dst
}

// transpose fills b with rows, AppendRows inverted: one pass over the
// rows, each field to its column. A dictionary holds its values in
// first-appearance order, and a row whose value equals the row
// before's reuses that row's index.
func (b *ColumnBatch) transpose(rows []sample.Sample) {
	b.reset(len(rows))
	pop, prefix, country := newDictBuilder(&b.PoP), newDictBuilder(&b.Prefix), newDictBuilder(&b.Country)
	continent, proto, route := newDictBuilder(&b.Continent), newDictBuilder(&b.Proto), newDictBuilder(&b.Route)
	for i := range rows {
		r := &rows[i]
		b.SessionID[i] = r.SessionID
		b.PoP.Idx[i] = pop.add(r.PoP)
		b.Prefix.Idx[i] = prefix.add(r.Prefix)
		b.ClientAS[i] = int64(r.ClientAS)
		b.Country.Idx[i] = country.add(r.Country)
		b.Continent.Idx[i] = continent.add(string(r.Continent))
		b.ClientSubnet[i] = int64(r.ClientSubnet)
		b.Proto.Idx[i] = proto.add(string(r.Proto))
		b.DistanceKm[i] = r.DistanceKm
		b.CrossContinent[i] = r.CrossContinent
		b.Route.Idx[i] = route.add(r.RouteID)
		b.RouteRel[i] = int64(r.RouteRel)
		b.ASPathLen[i] = int64(r.ASPathLen)
		b.Prepended[i] = r.Prepended
		b.AltIndex[i] = int64(r.AltIndex)
		b.Start[i] = int64(r.Start)
		b.Duration[i] = int64(r.Duration)
		b.BusyFraction[i] = r.BusyFraction
		b.Bytes[i] = r.Bytes
		b.Transactions[i] = int64(r.Transactions)
		b.RespVals = append(b.RespVals, r.ResponseBytes...)
		b.RespEnds[i] = len(b.RespVals)
		b.MediaEndpoint[i] = r.MediaEndpoint
		b.MinRTT[i] = int64(r.MinRTT)
		b.HDTested[i] = int64(r.HDTested)
		b.HDAchieved[i] = int64(r.HDAchieved)
		b.SimpleAchieved[i] = int64(r.SimpleAchieved)
		b.HostingProvider[i] = r.HostingProvider
	}
	b.finalize()
}

// dictBuilder interns one dictionary column's values as transpose meets
// them. Most rows repeat the previous row's value, so only a change of
// value looks the map up.
type dictBuilder struct {
	col  *DictColumn
	at   map[string]uint32
	prev string // the value of the row before, at index last
	last uint32
}

func newDictBuilder(col *DictColumn) dictBuilder {
	return dictBuilder{col: col, at: make(map[string]uint32)}
}

// add returns v's index, appending v to the dictionary if it is new.
func (d *dictBuilder) add(v string) uint32 {
	if v == d.prev && len(d.col.Dict) > 0 {
		return d.last
	}
	j, ok := d.at[v]
	if !ok {
		j = uint32(len(d.col.Dict))
		d.col.Dict = append(d.col.Dict, v)
		d.at[v] = j
	}
	d.prev, d.last = v, j
	return j
}

// reset prepares b to receive n rows (a decode or a transpose), reusing
// column buffers whose capacity allows. Views must never be reset —
// only owned batches cycle through the pools.
func (b *ColumnBatch) reset(n int) {
	b.n = n
	b.SessionID = grow(b.SessionID, n)
	b.PoP.Idx = grow(b.PoP.Idx, n)
	b.Prefix.Idx = grow(b.Prefix.Idx, n)
	b.ClientAS = grow(b.ClientAS, n)
	b.Country.Idx = grow(b.Country.Idx, n)
	b.Continent.Idx = grow(b.Continent.Idx, n)
	b.ClientSubnet = grow(b.ClientSubnet, n)
	b.Proto.Idx = grow(b.Proto.Idx, n)
	b.DistanceKm = grow(b.DistanceKm, n)
	b.CrossContinent = grow(b.CrossContinent, n)
	b.Route.Idx = grow(b.Route.Idx, n)
	b.RouteRel = grow(b.RouteRel, n)
	b.ASPathLen = grow(b.ASPathLen, n)
	b.Prepended = grow(b.Prepended, n)
	b.AltIndex = grow(b.AltIndex, n)
	b.Start = grow(b.Start, n)
	b.Duration = grow(b.Duration, n)
	b.BusyFraction = grow(b.BusyFraction, n)
	b.Bytes = grow(b.Bytes, n)
	b.Transactions = grow(b.Transactions, n)
	b.RespEnds = grow(b.RespEnds, n)
	b.RespVals = b.RespVals[:0]
	b.MediaEndpoint = grow(b.MediaEndpoint, n)
	b.MinRTT = grow(b.MinRTT, n)
	b.HDTested = grow(b.HDTested, n)
	b.HDAchieved = grow(b.HDAchieved, n)
	b.SimpleAchieved = grow(b.SimpleAchieved, n)
	b.HostingProvider = grow(b.HostingProvider, n)
	b.PoP.Dict = b.PoP.Dict[:0]
	b.Prefix.Dict = b.Prefix.Dict[:0]
	b.Country.Dict = b.Country.Dict[:0]
	b.Continent.Dict = b.Continent.Dict[:0]
	b.Proto.Dict = b.Proto.Dict[:0]
	b.Route.Dict = b.Route.Dict[:0]
}

// finalize derives the row-scan hints after a decode or a transpose:
// start bounds and sortedness in one pass.
func (b *ColumnBatch) finalize() {
	b.StartMin, b.StartMax, b.StartsSorted = 0, 0, true
	b.singleGroup = false
	b.respFirst = 0
	if b.n == 0 {
		return
	}
	mn, mx := b.Start[0], b.Start[0]
	sorted := true
	for i := 1; i < b.n; i++ {
		v := b.Start[i]
		if v < b.Start[i-1] {
			sorted = false
		}
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	b.StartMin, b.StartMax, b.StartsSorted = mn, mx, sorted
}

// grow returns s resized to n rows, reusing its backing array when the
// capacity allows — the batch-pooling primitive.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
