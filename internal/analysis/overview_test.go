package analysis

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/segstore"
	"repro/internal/tdigest"
	"repro/internal/world"
)

// overviewBits is every bit a sealed overview can show a reader: each
// digest's centroids, extremes and count, and each counter.
func overviewBits(o *Overview) []uint64 {
	var out []uint64
	ints := func(vs ...int64) {
		for _, v := range vs {
			out = append(out, uint64(v))
		}
	}
	dig := func(d *tdigest.TDigest) {
		means, weights := d.Centroids()
		ints(int64(len(means)))
		for i := range means {
			out = append(out, math.Float64bits(means[i]), math.Float64bits(weights[i]))
		}
		out = append(out, math.Float64bits(d.Min()), math.Float64bits(d.Max()), math.Float64bits(d.Count()))
	}
	dig(o.MinRTT)
	dig(o.HD)
	dig(o.SimpleHD)
	ints(int64(o.HDZero), int64(o.HDOne), int64(o.HDDefined))
	for _, c := range geo.Continents {
		co := o.PerContinent[c]
		dig(co.MinRTT)
		dig(co.HD)
		ints(int64(co.HDZero), int64(co.HDOne), int64(co.HDDefined))
	}
	for i := range RTTBuckets {
		dig(o.HDByRTTBucket[i])
		ints(int64(o.HDZeroByRTTBucket[i]))
	}
	for _, p := range protocols {
		dig(o.SessionDuration[p])
		dig(o.BusyFraction[p])
		dig(o.TxnsPerSession[p])
	}
	dig(o.SessionBytes)
	dig(o.ResponseBytes)
	dig(o.MediaRespBytes)
	names := make([]string, 0, len(o.PerPoP))
	for name := range o.PerPoP {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pp := o.PerPoP[name]
		for _, b := range []byte(name) {
			ints(int64(b))
		}
		ints(int64(pp.Sessions), pp.Bytes)
		dig(pp.MinRTT)
	}
	dig(o.ServingDistance)
	ints(o.CrossContinentBytes, o.BytesOver50Txns, o.TotalBytes, int64(o.Sessions))
	return out
}

// The property the open segment study rests on (study.Segments): the
// overview is a function of each user group's samples in their order,
// and of nothing else. Folding on after a Seal — and after reads of the
// sealed digests — ends where folding straight through does, bit for
// bit, through Add and through AddColumns; so does cutting the stream
// into batches elsewhere, feeding it in the other currency, and
// delivering the groups interleaved instead of one after another.
func TestOverviewIsAFunctionOfPerGroupOrder(t *testing.T) {
	// Generated group after group; 6 groups x 2 days, hosting rows in.
	rows := world.New(world.Config{Seed: 5, Groups: 6, Days: 2, SessionsPerGroupWindow: 12}).GenerateAll()
	groups := map[sample.GroupKey]bool{}
	for i := range rows {
		groups[rows[i].Key()] = true
	}
	if len(groups) < 4 || len(rows) < 10_000 {
		t.Fatalf("%d rows of %d user groups: too small a stream to cut", len(rows), len(groups))
	}

	feeds := map[string]func(o *Overview, rows []sample.Sample, perBatch int){
		"Add": func(o *Overview, rows []sample.Sample, _ int) {
			for i := range rows {
				if !rows[i].HostingProvider { // the collector's filter, ahead of Add
					o.Add(rows[i])
				}
			}
		},
		"AddColumns": func(o *Overview, rows []sample.Sample, perBatch int) {
			for _, b := range columnBatches(t, rows, perBatch) {
				o.AddColumns(b)
				b.Release()
			}
		},
		// The sessions lane on this goroutine, the routes lane on another
		// two batches behind: the chain study's ingest runs.
		"lanes": func(o *Overview, rows []sample.Sample, perBatch int) {
			batches := columnBatches(t, rows, perBatch)
			foldLagging(o, batches, 2)
			for _, b := range batches {
				b.Release()
			}
		},
	}
	// A cut inside a group's run of samples, so that group's accumulator is
	// sealed between two of its own.
	cut := len(rows)/2 + 7
	if rows[cut-1].Key() != rows[cut].Key() {
		t.Fatal("the cut falls between two groups")
	}

	var want []uint64
	for name, feed := range feeds {
		straight := NewOverview()
		feed(straight, rows, 4096)
		straight.Seal()
		got := overviewBits(straight)
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Errorf("%s: the two currencies fold to different overviews", name)
		}

		resumed := NewOverview()
		feed(resumed, rows[:cut], 4096)
		resumed.Seal()
		resumed.Seal() // nothing folded since: a no-op
		if resumed.Sessions == 0 || math.IsNaN(resumed.MinRTT.Quantile(0.5)) || resumed.HD.CDF(0.5) <= 0 {
			t.Fatalf("%s: the first seal shows nothing", name)
		}
		feed(resumed, rows[cut:], 4096)
		resumed.Seal()
		if !slices.Equal(overviewBits(resumed), want) {
			t.Errorf("%s: fold, seal, fold, seal differs from fold, fold, seal", name)
		}

		recut := NewOverview()
		feed(recut, rows, 1000)
		recut.Seal()
		if !slices.Equal(overviewBits(recut), want) {
			t.Errorf("%s: batches of 1000 fold differently from batches of 4096", name)
		}

		// Day one of every group, then day two of every group: each group's
		// own order kept, the interleaving changed.
		var day1, day2 []sample.Sample
		for i := range rows {
			if rows[i].Start < segstore.DefaultSegmentSpan {
				day1 = append(day1, rows[i])
			} else {
				day2 = append(day2, rows[i])
			}
		}
		interleaved := NewOverview()
		feed(interleaved, day1, 4096)
		interleaved.Seal()
		feed(interleaved, day2, 4096)
		interleaved.Seal()
		if !slices.Equal(overviewBits(interleaved), want) {
			t.Errorf("%s: day by day folds differently from group by group", name)
		}
	}
}

// columnBatches encodes rows as segments of perBatch rows and decodes
// each back into a column batch, hosting rows in.
func columnBatches(t *testing.T, rows []sample.Sample, perBatch int) []*segstore.ColumnBatch {
	t.Helper()
	var out []*segstore.ColumnBatch
	for lo := 0; lo < len(rows); lo += perBatch {
		blob, _ := segstore.EncodeSegment(rows[lo:min(lo+perBatch, len(rows))])
		b, err := segstore.DecodeSegmentColumns(blob)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// foldLagging folds batches into o's sessions lane on the calling
// goroutine and into its routes lane on another, which takes batch k
// only once the sessions lane has folded batch k+lag.
func foldLagging(o *Overview, batches []*segstore.ColumnBatch, lag int) {
	sessions, routes := o.Lanes()
	ch := make(chan *segstore.ColumnBatch, len(batches))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := range ch {
			routes.AddColumns(b)
		}
	}()
	for i, b := range batches {
		sessions.AddColumns(b)
		if i >= lag {
			ch <- batches[i-lag]
		}
	}
	for _, b := range batches[max(0, len(batches)-lag):] {
		ch <- b
	}
	close(ch)
	<-done
}

// filled lists the paths under v that hold anything: a digest that took
// a value, a non-zero counter, and whatever a map or slice element holds.
// A kind it does not know is listed too, so a new field cannot pass
// unchecked.
func filled(v reflect.Value, path string) []string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return nil
		}
		if d, ok := v.Interface().(*tdigest.TDigest); ok {
			if d.Count() != 0 {
				return []string{path}
			}
			return nil
		}
		return filled(v.Elem(), path)
	case reflect.Struct:
		var out []string
		for i := 0; i < v.NumField(); i++ {
			out = append(out, filled(v.Field(i), path+"."+v.Type().Field(i).Name)...)
		}
		return out
	case reflect.Map:
		var out []string
		for it := v.MapRange(); it.Next(); {
			out = append(out, filled(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()))...)
		}
		return out
	case reflect.Slice:
		var out []string
		for i := 0; i < v.Len(); i++ {
			out = append(out, filled(v.Index(i), fmt.Sprintf("%s[%d]", path, i))...)
		}
		return out
	case reflect.Int, reflect.Int64:
		if v.Int() != 0 {
			return []string{path}
		}
		return nil
	}
	return []string{path + " (unchecked kind " + v.Kind().String() + ")"}
}

// The two lanes partition the fold: a lane writes only its own part of
// each accumulator, so folding one leaves the other's part as
// NewOverview made it, in either currency; and the two folded one after
// the other, or concurrently with the routes lane whole batches behind,
// are Add and AddColumns bit for bit, each sample counted once.
func TestOverviewLanesPartitionTheFold(t *testing.T) {
	rows := world.New(world.Config{Seed: 9, Groups: 5, Days: 1, SessionsPerGroupWindow: 12}).GenerateAll()
	var kept []sample.Sample // what reaches Add: the collector's filter, ahead of it
	for i := range rows {
		if !rows[i].HostingProvider {
			kept = append(kept, rows[i])
		}
	}
	if len(kept) == len(rows) {
		t.Fatal("no hosting rows: the columnar lanes' skip goes unexercised")
	}
	batches := columnBatches(t, rows, 2048)
	defer func() {
		for _, b := range batches {
			b.Release()
		}
	}()
	byColumns := func(l Lane) {
		for _, b := range batches {
			l.AddColumns(b)
		}
	}
	byRows := func(l Lane) {
		for i := range kept {
			l.Add(kept[i])
		}
	}

	all := NewOverview()
	byColumns(all) // an Overview is both lanes at once
	all.Seal()
	want := overviewBits(all)
	viaAdd := NewOverview()
	byRows(viaAdd)
	viaAdd.Seal()
	if !slices.Equal(overviewBits(viaAdd), want) {
		t.Fatal("Add and AddColumns fold to different overviews")
	}

	for name, fold := range map[string]func(Lane){"AddColumns": byColumns, "Add": byRows} {
		sessionsOnly, routesOnly := NewOverview(), NewOverview()
		s, _ := sessionsOnly.Lanes()
		_, r := routesOnly.Lanes()
		fold(s)
		fold(r)
		sessionsOnly.Seal()
		routesOnly.Seal()
		if got := filled(reflect.ValueOf(sessionsOnly.routePart), "routePart"); len(got) > 0 {
			t.Errorf("%s: the sessions lane alone filled %v", name, got)
		}
		if got := filled(reflect.ValueOf(routesOnly.sessionPart), "sessionPart"); len(got) > 0 {
			t.Errorf("%s: the routes lane alone filled %v", name, got)
		}
		// Each lane alone folds its whole part.
		both := NewOverview()
		both.sessionPart, both.routePart = sessionsOnly.sessionPart, routesOnly.routePart
		if !slices.Equal(overviewBits(both), want) {
			t.Errorf("%s: the two one-lane folds put together differ from the full fold", name)
		}

		reg := obs.NewRegistry()
		seq := NewOverview()
		seq.Instrument(reg)
		s, r = seq.Lanes()
		fold(s)
		fold(r)
		seq.Seal()
		if !slices.Equal(overviewBits(seq), want) {
			t.Errorf("%s: the lanes folded one after the other differ from the full fold", name)
		}
		if n := reg.Counter("analysis_overview_samples_total").Value(); n != int64(len(kept)) {
			t.Errorf("%s: analysis_overview_samples_total = %d, want %d", name, n, len(kept))
		}
	}

	for _, lag := range []int{1, 3} {
		lagged := NewOverview()
		foldLagging(lagged, batches, lag)
		lagged.Seal()
		if !slices.Equal(overviewBits(lagged), want) {
			t.Errorf("routes lane %d batches behind on another goroutine: differs from the full fold", lag)
		}
	}
}
