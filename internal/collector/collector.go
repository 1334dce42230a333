// Package collector is the ingestion pipeline between the load-balancer
// instrumentation and analysis (§2.2.2, §2.2.4): it receives sampled
// session records, filters client addresses labelled as hosting
// providers or VPN relays (~2% of traffic, which would otherwise
// mislead temporal analysis — §2.2.4 footnote 2), and fans the stream
// out to sinks (dataset writers, aggregation stores).
//
// # Concurrency contract
//
// Offer, Err and Stats are safe for concurrent use: the counters are
// atomics and error poisoning is a compare-and-swap, so a collector
// may terminate several pipeline worker goroutines at once. Two caveats
// define the contract:
//
//   - The sink set is fixed before ingestion: New and AddSink must not
//     race with Offer. Configure, then run.
//   - Offer is only as concurrent as its sinks. StoreSink and
//     SliceSink wrap single-threaded consumers, so concurrent
//     pipelines give each shard its own collector (and store), then
//     combine counts with Stats.Merge and stores with agg's Store.Merge.
//     A collector whose sinks are themselves thread-safe (or that has
//     none) may be shared outright.
//
// Poisoning under concurrency keeps the sequential semantics per
// goroutine: after a sink returns an error, no goroutine starts a new
// sink fan-out, and samples offered from then on count as dropped.
// Offers already mid-fan-out in other goroutines complete against the
// pre-error sink state, exactly as interleaved sequential offers would.
package collector

import (
	"fmt"
	"sync/atomic"

	"repro/internal/agg"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/segstore"
)

// Sink consumes accepted samples. A non-nil error poisons the
// pipeline: the collector stops offering samples to every sink (a
// half-written dataset must not keep growing behind a failed writer).
type Sink func(sample.Sample) error

// ColumnSink consumes accepted column batches — the row-free
// counterpart of Sink for the segment read path. The batch is only
// valid for the duration of the call (the offerer releases it);
// consumers that retain data must fold it immediately or copy.
type ColumnSink func(*segstore.ColumnBatch) error

// Stats counts the pipeline's activity.
type Stats struct {
	// Received is every sample offered to the collector.
	Received int
	// FilteredHosting counts samples dropped by the hosting/VPN filter.
	FilteredHosting int
	// Accepted = Received − filtered − dropped.
	Accepted int
	// SinkErrors counts sink invocations that returned an error.
	SinkErrors int
	// DroppedAfterError counts samples discarded because a sink had
	// already failed.
	DroppedAfterError int
}

// Merge returns the element-wise sum of s and o — the reduction for
// per-shard collectors. Every sample passes through exactly one shard,
// so the merged stats match what a single sequential collector would
// have counted.
func (s Stats) Merge(o Stats) Stats {
	return Stats{
		Received:          s.Received + o.Received,
		FilteredHosting:   s.FilteredHosting + o.FilteredHosting,
		Accepted:          s.Accepted + o.Accepted,
		SinkErrors:        s.SinkErrors + o.SinkErrors,
		DroppedAfterError: s.DroppedAfterError + o.DroppedAfterError,
	}
}

// Collector filters and fans out samples. See the package comment for
// the concurrency contract.
type Collector struct {
	sinks    []Sink
	colSinks []ColumnSink

	received atomic.Int64
	filtered atomic.Int64
	accepted atomic.Int64
	sinkErrs atomic.Int64
	dropped  atomic.Int64
	err      atomic.Pointer[error]

	// Pre-resolved obs handles; nil (no-op) until Instrument is called.
	cAccepted *obs.Counter
	cFiltered *obs.Counter
	cSinkErrs *obs.Counter
	cDropped  *obs.Counter
}

// New returns a collector feeding the given sinks.
func New(sinks ...Sink) *Collector {
	return &Collector{sinks: sinks}
}

// AddSink attaches another sink; must not race with Offer.
func (c *Collector) AddSink(s Sink) { c.sinks = append(c.sinks, s) }

// AddColumnSink attaches a column-batch sink; must not race with
// OfferColumns. A run feeds a collector through exactly one currency —
// rows via Offer or batches via OfferColumns — so a collector carries
// whichever sink set matches its path (the stats are shared either
// way).
func (c *Collector) AddColumnSink(s ColumnSink) { c.colSinks = append(c.colSinks, s) }

// Instrument registers the pipeline counters on reg (nil-safe: a nil
// registry leaves the collector uninstrumented). Shard collectors in a
// concurrent pipeline share one registry: the named counters resolve to
// the same atomics, so /metrics shows pipeline-wide totals.
func (c *Collector) Instrument(reg *obs.Registry) {
	c.cAccepted = reg.Counter("collector_accepted_total")
	c.cFiltered = reg.Counter("collector_filtered_hosting_total")
	c.cSinkErrs = reg.Counter("collector_sink_errors_total")
	c.cDropped = reg.Counter("collector_dropped_after_error_total")
	// Every offered sample lands in exactly one of these, so the total
	// is derived at exposition time and costs nothing per sample.
	acc, fil, drop := c.cAccepted, c.cFiltered, c.cDropped
	reg.CounterFunc("collector_offered_total", func() int64 {
		return acc.Value() + fil.Value() + drop.Value()
	})
}

// Offer runs one sample through the pipeline. After the first sink
// error the pipeline is poisoned: subsequent samples are counted as
// dropped and not offered to any sink (see Err). Safe for concurrent
// use when the sinks are (package comment).
func (c *Collector) Offer(s sample.Sample) {
	c.received.Add(1)
	if c.err.Load() != nil {
		c.dropped.Add(1)
		c.cDropped.Inc()
		return
	}
	if s.HostingProvider {
		c.filtered.Add(1)
		c.cFiltered.Inc()
		return
	}
	c.accepted.Add(1)
	c.cAccepted.Inc()
	for i, sink := range c.sinks {
		if err := sink(s); err != nil {
			c.sinkErrs.Add(1)
			c.cSinkErrs.Inc()
			// Attribute the failure before poisoning: operators debugging a
			// SinkErrors count need to know which sink broke on which
			// sample, and errors.Is/As still see the original cause.
			werr := fmt.Errorf("sink %d: sample %d (group %s, window %d): %w",
				i, s.SessionID, s.Key(), agg.WindowOf(s.Start), err)
			c.err.CompareAndSwap(nil, &werr)
			return
		}
	}
}

// OfferColumns runs one column batch through the pipeline — the
// row-free counterpart of Offer, with the same counter and poisoning
// semantics applied per row: every row counts as received; after a
// sink error whole batches count as dropped; the hosting filter
// compacts the batch in place (mutating it) before any sink sees it,
// so sinks never see hosting rows, exactly as with Offer. The caller
// retains ownership of the batch and releases it afterwards.
func (c *Collector) OfferColumns(b *segstore.ColumnBatch) {
	n := b.Len()
	c.received.Add(int64(n))
	if c.err.Load() != nil {
		c.dropped.Add(int64(n))
		c.cDropped.Add(int64(n))
		return
	}
	kept := b.Compact(func(i int) bool { return !b.HostingProvider[i] })
	if f := n - kept; f > 0 {
		c.filtered.Add(int64(f))
		c.cFiltered.Add(int64(f))
	}
	n = kept
	if n == 0 {
		return
	}
	c.accepted.Add(int64(n))
	c.cAccepted.Add(int64(n))
	for i, sink := range c.colSinks {
		if err := sink(b); err != nil {
			c.sinkErrs.Add(1)
			c.cSinkErrs.Inc()
			werr := fmt.Errorf("column sink %d: batch of %d (first sample %d, group %s): %w",
				i, n, b.SessionID[0], b.KeyAt(0), err)
			c.err.CompareAndSwap(nil, &werr)
			return
		}
	}
}

// Err returns the first sink error, or nil.
func (c *Collector) Err() error {
	if p := c.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Stats returns a snapshot of the pipeline counters.
func (c *Collector) Stats() Stats {
	return Stats{
		Received:          int(c.received.Load()),
		FilteredHosting:   int(c.filtered.Load()),
		Accepted:          int(c.accepted.Load()),
		SinkErrors:        int(c.sinkErrs.Load()),
		DroppedAfterError: int(c.dropped.Load()),
	}
}

// StoreSink adapts an aggregation store into a sink. The store is
// single-threaded: use one per shard collector in concurrent pipelines.
func StoreSink(st *agg.Store) Sink {
	return func(s sample.Sample) error {
		st.Add(s)
		return nil
	}
}

// FuncSink adapts an infallible consumer into a sink.
func FuncSink(f func(sample.Sample)) Sink {
	return func(s sample.Sample) error {
		f(s)
		return nil
	}
}

// StoreColumnSink adapts an aggregation store's batch path into a
// column sink. Like StoreSink, the store is single-threaded: one per
// shard collector in concurrent pipelines.
func StoreColumnSink(st *agg.Store) ColumnSink {
	return func(b *segstore.ColumnBatch) error {
		st.AddBatch(b)
		return nil
	}
}

// SliceSink appends accepted samples to *dst — the buffer-then-encode
// shape columnar writers need (they see whole segments, not a stream).
func SliceSink(dst *[]sample.Sample) Sink {
	return func(s sample.Sample) error {
		*dst = append(*dst, s)
		return nil
	}
}
