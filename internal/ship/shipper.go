package ship

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/segstore"
	"repro/internal/trace"
)

// errWire is the sentinel every wire-level failure wraps: transient by
// construction, so faults.Retry (through faults.IsTransient) retries a
// severed connection.
var errWire = &faults.FaultError{Surface: faults.SurfaceShip, Key: "wire", Transient: true}

// credit is the in-flight window: a shipper keeps at most this many
// unacknowledged shipments in flight — the bounded-queue backpressure,
// so a slow merger holds at most credit unprocessed shipments per
// connection in kernel buffers and shippers block instead of ballooning.
const credit = 4

// ShipperOptions configures one catch-up shipping run over a PoP's
// committed dataset.
type ShipperOptions struct {
	// Dir is the PoP's local segment dataset.
	Dir string
	// Network and Addr locate the merger ("tcp" host:port or "unix"
	// socket path). An Addr containing a path separator defaults the
	// network to "unix", otherwise "tcp".
	Network string
	Addr    string
	// PoP and Pops identify this shipper in its fleet.
	PoP  int
	Pops int
	// Injector drives the deterministic wire-fault surface (may be nil).
	// This is the *ship* plan — wire-only chaos, never part of the
	// dataset origin.
	Injector *faults.Injector
	// Reg receives shipper metrics (may be nil).
	Reg *obs.Registry
	// Rec records shipment events (may be nil).
	Rec *trace.Recorder
	// AckBatch group-commits the durable ack log every AckBatch acked
	// slots instead of after every one, amortizing the fsync-bound
	// per-slot commit cost (~1.1ms/slot, see EXPERIMENTS.md). <=1
	// commits per ack. Batching never risks data: an ack lost to a
	// crash before its batch commits is simply re-shipped on resume and
	// deduplicated by the merger, while every slot already in ACKS.json
	// stays skipped — resume never re-acks past the committed watermark.
	AckBatch int
	// OnAck observes each acknowledgement as it arrives (with AckBatch
	// > 1 the ack may not be durable yet) — the kill-and-restart tests'
	// hook for cancelling mid-shipment (may be nil).
	OnAck func(segID int, dup bool)
	// Dial overrides net.Dial (tests; may be nil).
	Dial func(network, addr string) (net.Conn, error)
}

// ShipStats reports one shipping run.
type ShipStats struct {
	// Shipped counts slots (segments + tombstones) newly acked this run;
	// AlreadyAcked counts slots the ack log let us skip entirely.
	Shipped      int
	AlreadyAcked int
	// Segments and Tombs split Shipped by kind.
	Segments int
	Tombs    int
	// Bytes is the segment payload volume actually sent (retries and
	// injected duplicates included).
	Bytes int64
	// Retries counts backoff retries spent; Reconnects counts
	// connections re-established after the first.
	Retries    int
	Reconnects int
	// DupsInjected counts duplicate deliveries the fault plan injected —
	// the number the merger's dedup counter must equal exactly.
	DupsInjected int
	// MergerDeduped echoes the DoneAck totals for this shipper's final
	// connection (informational; resumed runs undercount).
	MergerAccepted int
	MergerDeduped  int
}

// shipItem is one slot to ship: a committed segment or a tombstone.
type shipItem struct {
	id   int
	meta *segstore.SegmentMeta
	tomb *segstore.Tombstone
}

// shipper is the connection-scoped state of one Ship call.
type shipper struct {
	opt    ShipperOptions
	origin string
	acks   *segstore.AckLog
	conn   net.Conn
	stats  ShipStats
	tb     *trace.Buf
	// attempts numbers each slot's send attempts across reconnects so
	// fault decisions stay a function of (segment, attempt).
	attempts map[int]int
	// everConnected separates the first connection from reconnects.
	everConnected bool
	// pendingAcks counts acks added to the log but not yet committed
	// (AckBatch group-commit); flushAcks drains it.
	pendingAcks int

	cShipped   *obs.Counter
	cRetries   *obs.Counter
	cReconnect *obs.Counter
	cDupInj    *obs.Counter
	cBytes     *obs.Counter
	gBacklog   *obs.Gauge
	gInflight  *obs.Gauge
	gWatermark *obs.Gauge
}

// Ship ships every committed-but-unacked slot in opt.Dir's manifest to
// the merger, in ascending segment-ID order, under the credit window
// and the fault plan, committing the ack log after every
// acknowledgement. It is safe to kill the process at any instant and
// call Ship again: already-acked slots are skipped via the durable ack
// log, and a slot whose ack was lost in flight is re-shipped and
// deduplicated by the merger. Returns the run's stats and the first
// unrecoverable error.
func Ship(ctx context.Context, opt ShipperOptions) (ShipStats, error) {
	if opt.Network == "" {
		opt.Network = networkOf(opt.Addr)
	}
	if opt.Dial == nil {
		opt.Dial = net.Dial
	}

	man, err := loadManifestChecked(opt.Dir)
	if err != nil {
		return ShipStats{}, err
	}
	acks, err := segstore.LoadAcks(opt.Dir, man.Origin)
	if err != nil {
		return ShipStats{}, err
	}

	s := &shipper{opt: opt, origin: man.Origin, acks: acks, attempts: map[int]int{}}
	s.instrument(opt.Reg)
	s.tb = opt.Rec.Buf()

	// The work list: every committed slot the merger has not durably
	// acknowledged, ascending by ID (tombstones interleave by ID).
	var pending []shipItem
	for i := range man.Segments {
		m := &man.Segments[i]
		if acks.Has(m.ID) {
			s.stats.AlreadyAcked++
			continue
		}
		pending = append(pending, shipItem{id: m.ID, meta: m})
	}
	for i := range man.Tombstones {
		t := &man.Tombstones[i]
		if acks.Has(t.ID) {
			s.stats.AlreadyAcked++
			continue
		}
		pending = append(pending, shipItem{id: t.ID, tomb: t})
	}
	sortItems(pending)
	total := len(pending) + s.stats.AlreadyAcked
	s.gWatermark.Set(float64(acks.Watermark()))

	var inflight []shipItem
	requeue := func() {
		// A severed connection loses every in-flight ack: move the
		// in-flight slots back to the head of the queue — re-sending is
		// safe, the merger deduplicates.
		if len(inflight) > 0 {
			pending = append(append([]shipItem{}, inflight...), pending...)
			inflight = inflight[:0]
		}
	}

	defer func() {
		if s.conn != nil {
			_ = s.conn.Close() // best-effort teardown; acks are already durable
		}
	}()

	for len(pending)+len(inflight) > 0 {
		if err := ctx.Err(); err != nil {
			return s.stats, context.Cause(ctx)
		}
		s.gBacklog.Set(float64(len(pending) + len(inflight)))
		s.gInflight.Set(float64(len(inflight)))

		if len(pending) > 0 && len(inflight) < credit {
			it := pending[0]
			pending = pending[1:]
			if err := s.sendWithRetry(ctx, it, requeue); err != nil {
				s.markDegraded()
				return s.stats, err
			}
			inflight = append(inflight, it)
			continue
		}
		if len(inflight) == 0 {
			continue // requeue emptied the window; back to sending
		}
		if s.conn == nil {
			// The drain path found the connection dead: reconnect happens
			// inside the next send, so just restore the unacked slots.
			requeue()
			continue
		}
		ok, err := s.drainOne(&inflight)
		if err != nil {
			s.markDegraded()
			return s.stats, err
		}
		if !ok {
			requeue()
		}
	}
	s.gBacklog.Set(0)
	s.gInflight.Set(0)

	// Flush any group-committed acks still pending before the done
	// exchange: once DONE is acked the process is expected to exit, and
	// an unflushed tail would force a wasteful (if harmless) re-ship on
	// the next run.
	if err := s.flushAcks(); err != nil {
		s.markDegraded()
		return s.stats, err
	}
	if err := s.finish(ctx, total); err != nil {
		s.markDegraded()
		return s.stats, err
	}
	return s.stats, nil
}

// flushAcks commits the ack log if any acks are pending; the durable
// watermark advances only here.
func (s *shipper) flushAcks() error {
	if s.pendingAcks == 0 {
		return nil
	}
	if err := s.acks.Commit(s.opt.Dir); err != nil {
		return err
	}
	s.pendingAcks = 0
	return nil
}

func (s *shipper) instrument(reg *obs.Registry) {
	s.cShipped = reg.Counter("ship_shipped_total")
	s.cRetries = reg.Counter("ship_retries_total")
	s.cReconnect = reg.Counter("ship_reconnects_total")
	s.cDupInj = reg.Counter("ship_dup_injected_total")
	s.cBytes = reg.Counter("ship_bytes_total")
	s.gBacklog = reg.Gauge("ship_backlog")
	s.gInflight = reg.Gauge("ship_inflight")
	s.gWatermark = reg.Gauge("ship_acked_watermark")
}

// markDegraded raises the faults_degraded gauge on the way out of an
// unrecoverable shipping failure, so the progress line flags DEGRADED.
func (s *shipper) markDegraded() {
	s.opt.Injector.MarkDegraded()
}

// policy derives the retry policy for slot id: the wire plan's policy
// when one is configured, the default otherwise, with retries counted
// and traced.
func (s *shipper) policy(id int) faults.Policy {
	p := s.opt.Injector.Policy(id)
	p.OnRetry = func(int, error) {
		s.stats.Retries++
		s.cRetries.Inc()
	}
	return p.Traced(s.tb, trace.TrackRun, trace.PhaseRun, -1, uint64(id), "ship")
}

// connect dials the merger and completes the hello exchange, counting
// every connection after the first as a reconnect. Wire failures wrap
// errWire (transient).
func (s *shipper) connect() error {
	conn, err := s.opt.Dial(s.opt.Network, s.opt.Addr)
	if err != nil {
		return fmt.Errorf("dial merger %s %s: %v: %w", s.opt.Network, s.opt.Addr, err, errWire)
	}
	if err := WriteJSONFrame(conn, FrameHello, Hello{Origin: s.origin, PoP: s.opt.PoP, Pops: s.opt.Pops}); err != nil {
		_ = conn.Close() // the write error is the root cause
		return fmt.Errorf("send hello: %v: %w", err, errWire)
	}
	typ, payload, err := ReadFrame(conn)
	if err != nil {
		_ = conn.Close()
		return fmt.Errorf("read hello ack: %v: %w", err, errWire)
	}
	switch typ {
	case FrameHelloAck:
	case FrameErr:
		_ = conn.Close()
		return refusal(payload)
	default:
		_ = conn.Close()
		return fmt.Errorf("ship: hello answered with frame type %d", typ)
	}
	s.conn = conn
	if s.everConnected {
		s.stats.Reconnects++
		s.cReconnect.Inc()
	}
	s.everConnected = true
	return nil
}

// sendWithRetry ships one slot under faults.Retry: each attempt
// (re)establishes the connection if needed, draws its deterministic
// wire fault, and writes the frame. Injected drops and truncations
// sever the connection and surface as transient errors, consuming the
// retry budget like real network failures.
func (s *shipper) sendWithRetry(ctx context.Context, it shipItem, requeue func()) error {
	err := faults.Retry(ctx, s.policy(it.id), func() error {
		if s.conn == nil {
			if err := s.connect(); err != nil {
				return err
			}
			requeue()
		}
		attempt := s.attempts[it.id]
		s.attempts[it.id]++
		return s.sendOnce(it, attempt)
	})
	if err != nil {
		return fmt.Errorf("ship: slot %d: %w", it.id, err)
	}
	return nil
}

// sendOnce performs one send attempt with its injected wire fate.
func (s *shipper) sendOnce(it shipItem, attempt int) error {
	f := s.opt.Injector.ShipFault(it.id, attempt)
	if !f.None() {
		s.tb.Emit(trace.Event{
			Track: trace.TrackRun, Phase: trace.PhaseRun, Win: -1, Seq: uint64(it.id),
			Kind: trace.KFault, Stage: "ship", Value: int64(attempt), Detail: f.Kind.String(),
		})
	}
	frame, typ, err := s.encode(it)
	if err != nil {
		return err
	}
	switch f.Kind {
	case faults.ShipDrop:
		// The shipment vanishes before a byte hits the wire and the
		// connection is severed — the classic lossy-link failure.
		s.closeConn()
		return fmt.Errorf("injected %s on slot %d: %w", f.Kind, it.id, errWire)
	case faults.ShipTruncate:
		// Half a frame lands, then the connection dies; the merger must
		// discard the torn frame without side effects.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, frame); err != nil {
			return err
		}
		_, _ = s.conn.Write(buf.Bytes()[:buf.Len()/2]) // the sever is the point; the torn write may itself fail
		s.closeConn()
		return fmt.Errorf("injected %s on slot %d: %w", f.Kind, it.id, errWire)
	case faults.ShipDelay:
		time.Sleep(f.Delay) // timing-only chaos: the shipment still lands
	}
	if err := WriteFrame(s.conn, typ, frame); err != nil {
		s.closeConn()
		return fmt.Errorf("send slot %d: %v: %w", it.id, err, errWire)
	}
	s.cBytes.Add(int64(len(frame)))
	s.stats.Bytes += int64(len(frame))
	if f.Kind == faults.ShipDup {
		// Deliver the same shipment twice back to back; the merger's
		// dedup must drop exactly one of them.
		s.stats.DupsInjected++
		s.cDupInj.Inc()
		if err := WriteFrame(s.conn, typ, frame); err != nil {
			s.closeConn()
			return fmt.Errorf("send duplicate of slot %d: %v: %w", it.id, err, errWire)
		}
		s.cBytes.Add(int64(len(frame)))
		s.stats.Bytes += int64(len(frame))
	}
	return nil
}

// encode builds the slot's frame payload, reading and verifying the
// segment blob from disk for segment slots.
func (s *shipper) encode(it shipItem) ([]byte, byte, error) {
	if it.tomb != nil {
		p, err := marshal(Tomb{ID: it.tomb.ID, Reason: it.tomb.Reason, SamplesLost: it.tomb.SamplesLost})
		return p, FrameTomb, err
	}
	blob, err := os.ReadFile(filepath.Join(s.opt.Dir, it.meta.File))
	if err != nil {
		return nil, 0, fmt.Errorf("ship: segment %d: %w", it.id, err)
	}
	hash := crc32.ChecksumIEEE(blob)
	if int64(len(blob)) != it.meta.Bytes || hash != it.meta.CRC {
		return nil, 0, fmt.Errorf("ship: segment %d (%s) does not match its manifest entry; refusing to ship rotted data", it.id, it.meta.File)
	}
	p, err := EncodeShipPayload(ShipHeader{SegID: it.id, Hash: hash, Meta: *it.meta}, blob)
	return p, FrameShip, err
}

// drainOne reads one frame and retires the acked slot: the ack log is
// committed durably before the slot leaves the window, so a crash
// after this point never re-ships it. Returns ok=false (with the
// connection closed) on a wire failure the caller should recover from
// by requeueing.
func (s *shipper) drainOne(inflight *[]shipItem) (bool, error) {
	typ, payload, err := ReadFrame(s.conn)
	if err != nil {
		s.closeConn()
		return false, nil
	}
	switch typ {
	case FrameAck:
		var ack Ack
		if err := unmarshalFrame(payload, &ack); err != nil {
			return false, err
		}
		found := false
		for i, it := range *inflight {
			if it.id == ack.SegID {
				*inflight = append((*inflight)[:i], (*inflight)[i+1:]...)
				found = true
				if it.tomb != nil {
					s.stats.Tombs++
				} else {
					s.stats.Segments++
				}
				break
			}
		}
		if !found {
			// The surviving ack of an injected duplicate, or a replayed
			// delivery's second ack — already committed, nothing to do.
			return true, nil
		}
		s.acks.Add(ack.SegID)
		s.pendingAcks++
		if s.opt.AckBatch <= 1 || s.pendingAcks >= s.opt.AckBatch {
			if err := s.flushAcks(); err != nil {
				return false, err
			}
		}
		s.stats.Shipped++
		s.cShipped.Inc()
		s.gWatermark.Set(float64(s.acks.Watermark()))
		s.tb.Emit(trace.Event{
			Track: trace.TrackRun, Phase: trace.PhaseRun, Win: -1, Seq: uint64(ack.SegID),
			Kind: trace.KCommit, Stage: "ship", Value: 1,
		})
		if s.opt.OnAck != nil {
			s.opt.OnAck(ack.SegID, ack.Dup)
		}
		return true, nil
	case FrameErr:
		return false, refusal(payload)
	default:
		return false, fmt.Errorf("ship: expected ack, got frame type %d", typ)
	}
}

// finish runs the done exchange — retried like any shipment, since the
// connection may have died after the last ack.
func (s *shipper) finish(ctx context.Context, total int) error {
	return faults.Retry(ctx, s.policy(-1), func() error {
		if s.conn == nil {
			if err := s.connect(); err != nil {
				return err
			}
		}
		if err := WriteJSONFrame(s.conn, FrameDone, Done{Shipped: total}); err != nil {
			s.closeConn()
			return fmt.Errorf("send done: %v: %w", err, errWire)
		}
		for {
			typ, payload, err := ReadFrame(s.conn)
			if err != nil {
				s.closeConn()
				return fmt.Errorf("read done ack: %v: %w", err, errWire)
			}
			switch typ {
			case FrameAck:
				// The trailing ack of an injected duplicate, already
				// committed under its first delivery — drain and keep waiting.
				continue
			case FrameDoneAck:
				var da DoneAck
				if err := unmarshalFrame(payload, &da); err != nil {
					return err
				}
				s.stats.MergerAccepted = da.Accepted
				s.stats.MergerDeduped = da.Deduped
				return nil
			case FrameErr:
				return refusal(payload)
			default:
				return fmt.Errorf("ship: done answered with frame type %d", typ)
			}
		}
	})
}

func (s *shipper) closeConn() {
	if s.conn != nil {
		_ = s.conn.Close() // the connection is already being abandoned
		s.conn = nil
	}
}

// loadManifestChecked opens the dataset read-only to reuse Open's
// fail-fast verification, returning the manifest.
func loadManifestChecked(dir string) (*segstore.Manifest, error) {
	r, err := segstore.Open(dir)
	if err != nil {
		return nil, err
	}
	man := r.Manifest()
	if err := r.Close(); err != nil {
		return nil, err
	}
	return man, nil
}

func sortItems(items []shipItem) {
	for i := 1; i < len(items); i++ { // insertion sort: lists are near-sorted (segments then tombstones, each ascending)
		for j := i; j > 0 && items[j].id < items[j-1].id; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}

func refusal(payload []byte) error {
	var e ErrMsg
	if err := unmarshalFrame(payload, &e); err != nil {
		return err
	}
	return fmt.Errorf("ship: merger refused: %s", e.Msg)
}

func marshal(v any) ([]byte, error) {
	p, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("ship: marshal payload: %w", err)
	}
	return p, nil
}

func unmarshalFrame(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("ship: decode %T payload: %w", v, err)
	}
	return nil
}
