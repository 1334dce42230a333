package analysis

import (
	"time"

	"repro/internal/geo"
	"repro/internal/sample"
	"repro/internal/segstore"
	"repro/internal/tdigest"
)

// AddColumns folds a decoded column batch in, both lanes — the
// row-free counterpart of Add over the same rows in the same stream
// order: each run of rows sharing a user group goes to that group's
// accumulator, so every digest evolves identically (same values, same
// insertion order, same compaction trigger points) and the rendered
// overview is byte-identical whichever currency fed it. A segment written
// per group is one run.
func (o *Overview) AddColumns(b *segstore.ColumnBatch) {
	o.sessions.AddColumns(b)
	o.routes.AddColumns(b)
}

// AddColumns folds a column batch into the lane's parts, run by run.
func (l *lane[A, P]) AddColumns(b *segstore.ColumnBatch) {
	n := b.Len()
	if n == 0 {
		return
	}
	added := 0
	for i := 0; i < n; {
		end := b.KeyRunEnd(i)
		added += l.group(b.KeyAt(i)).addColumns(b, i, end)
		i = end
	}
	l.sealed = false
	l.count.Add(int64(added))
}

// addColumns folds rows [lo, hi) of b in and returns how many it took.
//
// Hosting-provider rows are skipped inline, in both lanes: pre-filtered
// batches (the collector compacts them out) and raw batches (the sharded
// feed folds the overview before the per-shard collectors run) fold the
// same.
//
// Dictionary columns are resolved once per call — protocol digest
// lookups hoist out of the row loop; per-PoP state is cached per
// dictionary entry but created lazily, so a PoP appearing only on skipped
// rows opens no PerPoP entry (matching the row path).
func (o *sessionPart) addColumns(b *segstore.ColumnBatch, lo, hi int) int {
	type protoDigests struct{ sd, bf, txn *tdigest.TDigest }
	protos := make([]protoDigests, len(b.Proto.Dict))
	for i, v := range b.Proto.Dict {
		p := sample.Protocol(v)
		protos[i] = protoDigests{o.SessionDuration[p], o.BusyFraction[p], o.TxnsPerSession[p]}
	}
	allSD, allBF, allTxn := o.SessionDuration["all"], o.BusyFraction["all"], o.TxnsPerSession["all"]
	pops := make([]*PoPOverview, len(b.PoP.Dict))

	added := 0
	for i := lo; i < hi; i++ {
		if b.HostingProvider[i] {
			continue
		}
		added++

		pd := protos[b.Proto.Idx[i]]
		dur := time.Duration(b.Duration[i]).Seconds()
		allSD.Add(dur)
		if pd.sd != nil {
			pd.sd.Add(dur)
		}
		allBF.Add(b.BusyFraction[i])
		if pd.bf != nil {
			pd.bf.Add(b.BusyFraction[i])
		}
		txns := float64(b.Transactions[i])
		allTxn.Add(txns)
		if pd.txn != nil {
			pd.txn.Add(txns)
		}
		bytes := b.Bytes[i]
		o.SessionBytes.Add(float64(bytes))
		o.TotalBytes += bytes
		if b.Transactions[i] >= 50 {
			o.BytesOver50Txns += bytes
		}
		if b.DistanceKm[i] > 0 {
			o.ServingDistance.Add(b.DistanceKm[i])
		}
		if b.CrossContinent[i] {
			o.CrossContinentBytes += bytes
		}
		pi := b.PoP.Idx[i]
		pp := pops[pi]
		if pp == nil {
			pp = o.PerPoP[b.PoP.Dict[pi]]
			if pp == nil {
				pp = &PoPOverview{MinRTT: tdigest.New(tdigest.DefaultCompression)}
				o.PerPoP[b.PoP.Dict[pi]] = pp
			}
			pops[pi] = pp
		}
		pp.Sessions++
		pp.Bytes += bytes
		pp.MinRTT.Add(float64(b.MinRTT[i]) / 1e6)
	}
	o.Sessions += added
	return added
}

// addColumns is sessionPart.addColumns for the routes lane; continent
// digest lookups hoist out of the row loop.
func (o *routePart) addColumns(b *segstore.ColumnBatch, lo, hi int) int {
	conts := make([]*ContinentOverview, len(b.Continent.Dict))
	for i, v := range b.Continent.Dict {
		conts[i] = o.PerContinent[geo.Continent(v)]
	}

	added := 0
	for i := lo; i < hi; i++ {
		if b.HostingProvider[i] {
			continue
		}
		added++

		rlo, rhi := b.RespSpan(i)
		for _, rb := range b.RespVals[rlo:rhi] {
			o.ResponseBytes.Add(float64(rb))
			if b.MediaEndpoint[i] {
				o.MediaRespBytes.Add(float64(rb))
			}
		}

		// Performance metrics use the preferred route only (§2.2.3).
		if b.AltIndex[i] != 0 {
			continue
		}
		rttMs := float64(b.MinRTT[i]) / float64(time.Millisecond)
		o.MinRTT.Add(rttMs)
		co := conts[b.Continent.Idx[i]]
		if co != nil {
			co.MinRTT.Add(rttMs)
		}
		if t := b.HDTested[i]; t != 0 {
			hd := float64(b.HDAchieved[i]) / float64(t)
			o.HD.Add(hd)
			o.HDDefined++
			if hd == 0 {
				o.HDZero++
			}
			if hd == 1 {
				o.HDOne++
			}
			if co != nil {
				co.HD.Add(hd)
				co.HDDefined++
				if hd == 0 {
					co.HDZero++
				}
				if hd == 1 {
					co.HDOne++
				}
			}
			for j, rb := range RTTBuckets {
				if rttMs >= rb.Lo && rttMs < rb.Hi {
					o.HDByRTTBucket[j].Add(hd)
					if hd == 0 {
						o.HDZeroByRTTBucket[j]++
					}
					break
				}
			}
			o.SimpleHD.Add(float64(b.SimpleAchieved[i]) / float64(t))
		}
	}
	return added
}
