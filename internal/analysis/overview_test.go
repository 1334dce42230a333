package analysis

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/geo"
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
			for lo := 0; lo < len(rows); lo += perBatch {
				blob, _ := segstore.EncodeSegment(rows[lo:min(lo+perBatch, len(rows))])
				b, err := segstore.DecodeSegmentColumns(blob)
				if err != nil {
					t.Fatal(err)
				}
				o.AddColumns(b)
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
