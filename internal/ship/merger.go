package ship

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/segstore"
	"repro/internal/trace"
)

// peerTimeout is how long the merger waits for a peer's hello and for
// each later frame. A shipper sends its frames back to back, so a peer
// silent this long has stalled; dropping it frees its goroutine, its
// descriptor and any partly read frame, and the shipper reconnects and
// replays, as after any torn frame.
const peerTimeout = time.Minute

// frameDeadline is peerTimeout; tests shorten it before NewMerger.
var frameDeadline = peerTimeout

// maxPendingHellos bounds the connections waiting for their hello: over
// ten times the largest fleet a test or identity cell ships (three
// PoPs). A connection accepted past it is closed at once, so silent
// peers cannot pile up goroutines and descriptors for a peerTimeout
// each.
const maxPendingHellos = 64

// MergerOptions configures the central merge tier.
type MergerOptions struct {
	// SpoolDir is the directory the merger spools accepted segments
	// into — an ordinary segstore dataset, committed under the same
	// atomic-manifest protocol a local writer uses, so the finished
	// spool is byte-identical to a single-process run's dataset.
	SpoolDir string
	// Origin pins the expected dataset origin. Empty adopts the first
	// hello's origin; every later hello must match it either way.
	Origin string
	// ExpectPoPs, when positive, makes Serve return once that many
	// distinct PoPs have completed their done exchange.
	ExpectPoPs int
	// Reg receives merger metrics (may be nil).
	Reg *obs.Registry
	// Rec records merge events (may be nil).
	Rec *trace.Recorder
	// OnCommit observes every successful spool commit (a newly accepted
	// segment or tombstone; dedups excluded) — the studyd wire-mode
	// hook that invalidates cached reports (may be nil). Called with
	// the merger's lock held; keep it cheap.
	OnCommit func()
}

// MergeStats reports a merger's lifetime totals.
type MergeStats struct {
	// Shipments counts accepted (newly committed) segment shipments;
	// Tombstones counts accepted tombstone slots.
	Shipments  int
	Tombstones int
	// Dedup counts duplicate deliveries dropped idempotently — under a
	// duplicate-injection plan with no crashes this equals the injected
	// duplicate count exactly.
	Dedup int
	// HashConflicts counts refused shipments whose content hash
	// disagreed with the slot already committed (always an error).
	HashConflicts int
	// Bytes is the accepted segment payload volume.
	Bytes int64
	// Conns counts connections accepted and handled (not those refused
	// past maxPendingHellos); PopsDone counts completed done exchanges.
	Conns    int
	PopsDone int
}

// Merger accepts shipping connections and folds every accepted
// shipment into the spool dataset, exactly once per slot.
type Merger struct {
	opt MergerOptions

	mu     sync.Mutex
	origin string
	// pops is the fleet size the first accepted hello pinned (0 before
	// it): each PoP generates its seggen.OwnedGroups share of a fleet of
	// that size, so a PoP of another fleet would overlap or miss groups.
	pops int
	w    *segstore.Writer
	// hashes remembers each committed slot's content hash so a replayed
	// shipment is verified, not blindly trusted (tombstones hash to 0).
	hashes map[int]uint32
	tombs  map[int]bool
	stats  MergeStats
	done   map[int]bool // PoP indices that completed their done exchange
	// conns is each PoP's connection past its hello: at most one, so
	// the connections a fleet holds open are at most its pinned size.
	conns map[int]net.Conn

	tb *trace.Buf
	// deadline bounds the wait for each frame of a peer (peerTimeout).
	deadline time.Duration

	cShipments *obs.Counter
	cDedup     *obs.Counter
	cTombs     *obs.Counter
	cBytes     *obs.Counter
	gConns     *obs.Gauge
	gPopsDone  *obs.Gauge
	cRefused   *obs.Counter
}

// NewMerger builds a merger over opt.SpoolDir. An existing spool is
// resumed (its manifest is the dedup state), so a restarted merger
// keeps its exactly-once guarantee.
func NewMerger(opt MergerOptions) (*Merger, error) {
	m := &Merger{
		opt:    opt,
		origin: opt.Origin,
		hashes: map[int]uint32{},
		tombs:  map[int]bool{},
		done:   map[int]bool{},
		conns:  map[int]net.Conn{},
		// Read once, so a test that shortens frameDeadline races no
		// earlier merger's handlers.
		deadline: frameDeadline,
	}
	m.tb = opt.Rec.Buf()
	m.cShipments = opt.Reg.Counter("merge_shipments_total")
	m.cDedup = opt.Reg.Counter("merge_dedup_dropped_total")
	m.cTombs = opt.Reg.Counter("merge_tombstones_total")
	m.cBytes = opt.Reg.Counter("merge_bytes_total")
	m.gConns = opt.Reg.Gauge("merge_conns")
	m.gPopsDone = opt.Reg.Gauge("merge_pops_done")
	m.cRefused = opt.Reg.Counter("merge_hello_refused_total")
	if m.origin != "" {
		if err := m.openSpool(m.origin); err != nil {
			return nil, err
		}
	} else if segstore.IsDataset(opt.SpoolDir) {
		// Resuming a spool with no pinned origin: adopt the manifest's.
		man, err := loadManifestChecked(opt.SpoolDir)
		if err != nil {
			return nil, err
		}
		m.origin = man.Origin
		if err := m.openSpool(m.origin); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// openSpool opens (or resumes) the spool writer for origin and seeds
// the dedup state from its manifest. Caller holds no lock (NewMerger)
// or m.mu (first hello).
func (m *Merger) openSpool(origin string) error {
	w, err := segstore.Create(m.opt.SpoolDir, origin)
	if err != nil {
		return err
	}
	for _, s := range w.Manifest().Segments {
		m.hashes[s.ID] = s.CRC
	}
	for _, t := range w.Manifest().Tombstones {
		m.tombs[t.ID] = true
	}
	m.w = w
	return nil
}

// Stats snapshots the merger's totals.
func (m *Merger) Stats() MergeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Origin returns the spool origin ("" until the first hello adopts one).
func (m *Merger) Origin() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.origin
}

// EmitTrace writes the merger's run-level marks — most importantly the
// dedup counter, which edgetrace causes reports next to the coverage
// ledger. Call once, after Serve returns, from the goroutine that owns
// the recorder.
func (m *Merger) EmitTrace() {
	st := m.Stats()
	m.tb.Emit(trace.Event{
		Track: trace.TrackRun, Phase: trace.PhaseRun, Win: -1, Seq: 1 << 20,
		Kind: trace.KMark, Stage: trace.CoverageStage, Value: int64(st.Dedup), Detail: trace.MarkDedup,
	})
}

// Serve accepts shipping connections on l until ctx is cancelled or —
// when ExpectPoPs is set — every expected PoP has finished. Each
// connection is handled on its own goroutine, of which at most
// maxPendingHellos wait for their hello: a connection accepted past
// that is closed at once and counted in merge_hello_refused_total.
// Serve returns after all
// handlers drain, and when ctx ends it closes every open connection,
// so no peer, however stalled, holds it. The listener is closed on
// return.
func (m *Merger) Serve(ctx context.Context, l net.Listener) error {
	defer func() { _ = l.Close() }() // double-close on the cancel path is harmless

	// A cancel, or the last expected DONE, closes the listener, which
	// unblocks Accept; the deferred close is then a no-op.
	defer context.AfterFunc(ctx, func() { _ = l.Close() })()
	finished := make(chan struct{})
	var finishOnce sync.Once
	finish := func() { finishOnce.Do(func() { close(finished); _ = l.Close() }) }

	pending := make(chan struct{}, maxPendingHellos) // a semaphore
	var wg sync.WaitGroup
	for {
		conn, err := l.Accept()
		if err != nil {
			wg.Wait()
			select {
			case <-ctx.Done():
				return context.Cause(ctx)
			case <-finished:
				return nil
			default:
				return fmt.Errorf("ship: accept: %w", err)
			}
		}
		select {
		case pending <- struct{}{}:
		default:
			_ = conn.Close() // refused; the peer reads EOF and reconnects later
			m.cRefused.Inc()
			continue
		}
		m.mu.Lock()
		m.stats.Conns++
		m.mu.Unlock()
		m.gConns.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer m.gConns.Add(-1)
			defer context.AfterFunc(ctx, func() { _ = conn.Close() })() // handle's own close may follow; the second is harmless
			m.handle(conn, finish, func() { <-pending })
		}()
	}
}

// handle runs one connection's frame loop; it calls helloed once the
// peer's first frame is read, or failed to be. Wire errors (including the
// torn frames a truncation fault leaves, a peer that sends no frame for
// peerTimeout, and a newer hello from the same PoP, which closes this
// connection) abandon the connection — the shipper reconnects
// and replays; nothing is partially applied because commits happen
// only after a frame fully decodes and verifies.
func (m *Merger) handle(conn net.Conn, finish, helloed func()) {
	defer func() { _ = conn.Close() }() // the frame loop already surfaced any real error to the peer
	read := func() (byte, []byte, error) {
		_ = conn.SetReadDeadline(time.Now().Add(m.deadline)) // fails only on a closed conn, whose read fails too
		return ReadFrame(conn)
	}

	typ, payload, err := read()
	helloed()
	if err != nil || typ != FrameHello {
		return // never completed hello; nothing to undo
	}
	var hello Hello
	if err := unmarshalFrame(payload, &hello); err != nil {
		return
	}
	if err := m.adopt(hello); err != nil {
		_ = WriteJSONFrame(conn, FrameErr, ErrMsg{Msg: err.Error()}) // refusal is best-effort; we drop the conn either way
		return
	}
	defer m.claim(hello.PoP, conn)()
	if err := WriteJSONFrame(conn, FrameHelloAck, HelloAck{}); err != nil {
		return
	}

	accepted, deduped := 0, 0
	for {
		typ, payload, err := read()
		if err != nil {
			return // severed mid-stream; shipper will reconnect
		}
		switch typ {
		case FrameShip:
			hdr, blob, err := DecodeShipPayload(payload)
			if err != nil {
				_ = WriteJSONFrame(conn, FrameErr, ErrMsg{Msg: err.Error()})
				return
			}
			dup, err := m.commitSegment(hdr, blob)
			if err != nil {
				_ = WriteJSONFrame(conn, FrameErr, ErrMsg{Msg: err.Error()})
				return
			}
			if dup {
				deduped++
			} else {
				accepted++
			}
			if err := WriteJSONFrame(conn, FrameAck, Ack{SegID: hdr.SegID, Dup: dup}); err != nil {
				return
			}
		case FrameTomb:
			var t Tomb
			if err := unmarshalFrame(payload, &t); err != nil {
				_ = WriteJSONFrame(conn, FrameErr, ErrMsg{Msg: err.Error()})
				return
			}
			dup, err := m.commitTombstone(t)
			if err != nil {
				_ = WriteJSONFrame(conn, FrameErr, ErrMsg{Msg: err.Error()})
				return
			}
			if dup {
				deduped++
			} else {
				accepted++
			}
			if err := WriteJSONFrame(conn, FrameAck, Ack{SegID: t.ID, Dup: dup}); err != nil {
				return
			}
		case FrameDone:
			var d Done
			if err := unmarshalFrame(payload, &d); err != nil {
				return
			}
			m.mu.Lock()
			if !m.done[hello.PoP] {
				m.done[hello.PoP] = true
				m.stats.PopsDone++
			}
			popsDone := m.stats.PopsDone
			m.mu.Unlock()
			m.gPopsDone.Set(float64(popsDone))
			_ = WriteJSONFrame(conn, FrameDoneAck, DoneAck{Accepted: accepted, Deduped: deduped}) // peer may already be gone
			if m.opt.ExpectPoPs > 0 && popsDone >= m.opt.ExpectPoPs {
				finish()
			}
			return
		default:
			_ = WriteJSONFrame(conn, FrameErr, ErrMsg{Msg: fmt.Sprintf("unexpected frame type %d", typ)})
			return
		}
	}
}

// adopt pins the spool origin and the fleet size on the first accepted
// hello and verifies every later one: two different invocations'
// datasets must never interleave in one spool, and every PoP must own
// its share of one fleet. A refused hello pins nothing.
func (m *Merger) adopt(h Hello) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	pops := cmp.Or(m.pops, h.Pops)
	switch {
	case h.Pops != pops:
		return fmt.Errorf("a fleet of %d PoPs does not match the pinned fleet of %d", h.Pops, pops)
	case h.PoP < 0 || h.PoP >= pops:
		return fmt.Errorf("PoP %d is outside a fleet of %d", h.PoP, pops)
	}
	if m.origin == "" {
		if err := m.openSpool(h.Origin); err != nil {
			return err
		}
		m.origin = h.Origin
	} else if h.Origin != m.origin {
		return fmt.Errorf("origin %q does not match spool origin %q", h.Origin, m.origin)
	}
	m.pops = pops
	return nil
}

// claim makes conn the connection of PoP pop, closing the one it
// replaces: a shipper holds one connection at a time and reconnects
// only after dropping the last, so an older one still open is dead, and
// closing it frees its handler's goroutine, its descriptor and any
// partly read frame. The returned func forgets conn unless a newer
// connection has claimed the PoP since.
func (m *Merger) claim(pop int, conn net.Conn) (release func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev := m.conns[pop]; prev != nil {
		_ = prev.Close() // its handler sees the read fail and returns
	}
	m.conns[pop] = conn
	return func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.conns[pop] == conn {
			delete(m.conns, pop)
		}
	}
}

// commitSegment folds one shipped segment into the spool, exactly
// once. The dedup key is (origin, segment ID, content hash): origin is
// connection-wide (adopt), the ID indexes the dedup state, and
// the hash distinguishes a harmless replay (same bytes — drop, ack as
// dup) from a conflict (different bytes for the same slot — refuse
// loudly; something is deeply wrong upstream).
func (m *Merger) commitSegment(hdr ShipHeader, blob []byte) (dup bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.w == nil {
		return false, errors.New("spool not open")
	}
	if m.tombs[hdr.SegID] {
		return false, fmt.Errorf("slot %d already committed as a tombstone; refusing segment data for it", hdr.SegID)
	}
	if prev, ok := m.hashes[hdr.SegID]; ok {
		if prev != hdr.Hash {
			m.stats.HashConflicts++
			return false, fmt.Errorf("segment %d hash conflict: spool has %08x, shipment has %08x", hdr.SegID, prev, hdr.Hash)
		}
		m.stats.Dedup++
		m.cDedup.Inc()
		m.tb.Emit(trace.Event{
			Track: trace.TrackRun, Phase: trace.PhaseRun, Win: -1, Seq: uint64(hdr.SegID),
			Kind: trace.KMark, Stage: "ship", Value: 1, Detail: trace.MarkDedup,
		})
		return true, nil
	}
	meta := hdr.Meta
	if err := m.w.Add(hdr.SegID, blob, meta); err != nil {
		return false, err
	}
	if err := m.w.Commit(); err != nil {
		return false, err
	}
	m.hashes[hdr.SegID] = hdr.Hash
	m.stats.Shipments++
	m.stats.Bytes += int64(len(blob))
	m.cShipments.Inc()
	m.cBytes.Add(int64(len(blob)))
	m.tb.Emit(trace.Event{
		Track: trace.TrackRun, Phase: trace.PhaseRun, Win: -1, Seq: uint64(hdr.SegID),
		Kind: trace.KCommit, Stage: "ship", Value: int64(meta.Samples),
	})
	if m.opt.OnCommit != nil {
		m.opt.OnCommit()
	}
	return false, nil
}

// commitTombstone folds one shipped tombstone into the spool manifest,
// exactly once.
func (m *Merger) commitTombstone(t Tomb) (dup bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.w == nil {
		return false, errors.New("spool not open")
	}
	if _, ok := m.hashes[t.ID]; ok {
		return false, fmt.Errorf("slot %d already committed as a segment; refusing tombstone for it", t.ID)
	}
	if m.tombs[t.ID] {
		m.stats.Dedup++
		m.cDedup.Inc()
		return true, nil
	}
	m.w.Tombstone(t.ID, t.Reason, t.SamplesLost)
	if err := m.w.Commit(); err != nil {
		return false, err
	}
	m.tombs[t.ID] = true
	m.stats.Tombstones++
	m.cTombs.Inc()
	m.tb.Emit(trace.Event{
		Track: trace.TrackRun, Phase: trace.PhaseRun, Win: -1, Seq: uint64(t.ID),
		Kind: trace.KCommit, Stage: "ship", Value: int64(-t.SamplesLost),
	})
	if m.opt.OnCommit != nil {
		m.opt.OnCommit()
	}
	return false, nil
}

// ListenAndServe is the binary-facing wrapper: listen on addr (a unix
// socket when it holds a path separator, else tcp) and Serve.
func (m *Merger) ListenAndServe(ctx context.Context, addr string) error {
	network := networkOf(addr)
	l, err := net.Listen(network, addr)
	if err != nil {
		return fmt.Errorf("ship: listen %s %s: %w", network, addr, err)
	}
	return m.Serve(ctx, l)
}

// networkOf is the network an address names: unix when it holds a path
// separator, else tcp.
func networkOf(addr string) string {
	if strings.ContainsRune(addr, os.PathSeparator) {
		return "unix"
	}
	return "tcp"
}
