// Package ship moves sealed segments from per-PoP collector processes
// to a central merge tier — the distribution layer the paper's
// methodology presumes (§3.4.1 aggregates per-PoP session summaries
// into mergeable global sketches) and the failure domain that
// dominates a real edge deployment: lossy links to the aggregation
// tier, PoP restarts mid-upload, duplicate shipments.
//
// The design keeps the repo's byte-identity invariant end to end. A
// shipper (edgesim -merger, once its PoP's share is generated) reads
// the PoP's committed segment dataset and sends each segment — blob
// plus manifest metadata — over a length-prefixed, CRC-framed stream;
// the merger (cmd/edgemerged) spools accepted segments into an
// ordinary segstore dataset under the same commit protocol the writer
// uses locally. Segment blobs are pure functions of their sample slices
// and manifests render sorted by segment ID, so the spool directory is
// byte-identical to the dataset a single edgesim process would have
// written — at any PoP count, in any arrival order, under any
// wire-fault plan.
//
// Robustness is structural, not best-effort:
//
//   - every shipment is retried under faults.Retry with capped
//     exponential backoff, reconnecting on severed connections;
//   - the merger deduplicates idempotently by (origin, segment ID,
//     content hash), so duplicated or replayed shipments never
//     double-count and a conflicting hash is a loud error;
//   - acknowledgements are committed to a durable ack log beside the
//     PoP's manifest (segstore.AckLog), so a killed PoP resumes from
//     the committed-vs-acked watermark with no re-generation;
//   - a constant credit window bounds the shipper's unacked backlog —
//     a slow merger degrades shipping latency, never memory.
//
// Deterministic wire faults (drops, truncations, duplicate deliveries,
// delays) come from the faults package's ship surface; they are pure
// functions of (plan, segment, attempt), so chaos tests can assert the
// merger's dedup counter equals the injected duplicate count exactly.
package ship

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/segstore"
)

// Frame types. A frame is [4]magic "ESH1" | [1]type | [4]payload len
// (big endian) | payload | [4]CRC32(payload). Payloads are JSON except
// FrameShip, which prefixes the JSON header with its own length so the
// segment blob rides uncopied behind it.
const (
	FrameHello    byte = 1 // shipper → merger: origin + identity
	FrameHelloAck byte = 2 // merger → shipper: hello accepted
	FrameShip     byte = 3 // shipper → merger: one segment (header + blob)
	FrameTomb     byte = 4 // shipper → merger: one tombstoned slot
	FrameAck      byte = 5 // merger → shipper: shipment durably committed
	FrameDone     byte = 6 // shipper → merger: nothing left to ship
	FrameDoneAck  byte = 7 // merger → shipper: totals for this connection
	FrameErr      byte = 8 // merger → shipper: unrecoverable refusal
)

// wireMagic guards against cross-protocol connections; MaxFrame bounds
// a frame's payload so a hostile or corrupt length can never drive an
// unbounded allocation.
const (
	wireMagic = "ESH1"
	MaxFrame  = 1 << 26
)

const frameHeaderLen = 9 // magic + type + payload length

// Hello opens a shipping connection.
type Hello struct {
	// Origin is the shipper's dataset origin; the merger adopts it for
	// the spool (first connection) or refuses a mismatch.
	Origin string `json:"origin"`
	// PoP and Pops identify the shipper within its fleet (index, size).
	PoP  int `json:"pop"`
	Pops int `json:"pops"`
}

// HelloAck accepts a hello: the origin matched and the PoP belongs to
// the pinned fleet, so the shipper may start shipping.
type HelloAck struct{}

// ShipHeader describes one shipped segment; the blob follows it inside
// the FrameShip payload.
type ShipHeader struct {
	SegID int `json:"seg_id"`
	// Hash is the blob's CRC32 (IEEE) — the content component of the
	// merger's (origin, ID, hash) dedup key, checked against both the
	// received bytes and the shipper's manifest metadata.
	Hash uint32               `json:"hash"`
	Meta segstore.SegmentMeta `json:"meta"`
}

// Tomb ships a tombstoned slot so the spool manifest accounts for the
// same losses the PoP's local manifest does.
type Tomb struct {
	ID          int    `json:"id"`
	Reason      string `json:"reason"`
	SamplesLost int    `json:"samples_lost"`
}

// Ack confirms one shipment (segment or tombstone) is durably
// committed in the spool manifest.
type Ack struct {
	SegID int `json:"seg_id"`
	// Dup marks an idempotently-dropped duplicate: the slot was already
	// committed, nothing changed, the shipment is still safe to ack.
	Dup bool `json:"dup,omitempty"`
}

// Done announces the shipper has nothing left to ship.
type Done struct {
	// Shipped is the number of distinct slots this shipper accounts for
	// (committed segments + tombstones), for the merger's logs.
	Shipped int `json:"shipped"`
}

// DoneAck closes the exchange with the connection's totals.
type DoneAck struct {
	Accepted int `json:"accepted"`
	Deduped  int `json:"deduped"`
}

// ErrMsg carries an unrecoverable refusal (origin mismatch, hash
// conflict); the shipper surfaces it and stops.
type ErrMsg struct {
	Msg string `json:"msg"`
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("ship: frame payload %d bytes exceeds MaxFrame %d", len(payload), MaxFrame)
	}
	hdr := make([]byte, frameHeaderLen, frameHeaderLen+len(payload)+4)
	copy(hdr, wireMagic)
	hdr[4] = typ
	binary.BigEndian.PutUint32(hdr[5:9], uint32(len(payload)))
	buf := append(hdr, payload...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads and validates one frame from r. The payload length
// is validated against MaxFrame before any payload byte is read, and
// the payload buffer grows chunk by chunk as bytes actually arrive —
// a hostile header claiming 64 MiB costs at most one chunk before the
// truncated stream errors out. Returns io.EOF (not ErrUnexpectedEOF)
// only when the stream ends cleanly on a frame boundary.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("ship: read frame header: %w", err)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return 0, nil, fmt.Errorf("ship: read frame header: %w", noEOF(err))
	}
	if string(hdr[:4]) != wireMagic {
		return 0, nil, fmt.Errorf("ship: bad frame magic %q", hdr[:4])
	}
	typ = hdr[4]
	if typ < FrameHello || typ > FrameErr {
		return 0, nil, fmt.Errorf("ship: unknown frame type %d", typ)
	}
	n := binary.BigEndian.Uint32(hdr[5:9])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("ship: frame payload %d bytes exceeds MaxFrame %d", n, MaxFrame)
	}
	const chunk = 1 << 16
	payload = make([]byte, 0, min(int(n), chunk))
	for len(payload) < int(n) {
		step := min(int(n)-len(payload), chunk)
		start := len(payload)
		payload = append(payload, make([]byte, step)...)
		if _, err := io.ReadFull(r, payload[start:]); err != nil {
			return 0, nil, fmt.Errorf("ship: read frame payload: %w", noEOF(err))
		}
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return 0, nil, fmt.Errorf("ship: read frame checksum: %w", noEOF(err))
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(crc[:]); got != want {
		return 0, nil, fmt.Errorf("ship: frame checksum mismatch: payload %08x, frame says %08x", got, want)
	}
	return typ, payload, nil
}

// noEOF upgrades a bare EOF mid-frame to ErrUnexpectedEOF so callers
// can distinguish a clean close from a torn frame.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// WriteJSONFrame marshals v and writes it as one frame of type typ.
func WriteJSONFrame(w io.Writer, typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("ship: marshal frame %d: %w", typ, err)
	}
	return WriteFrame(w, typ, payload)
}

// EncodeShipPayload builds a FrameShip payload: [4]header length (big
// endian) | header JSON | blob.
func EncodeShipPayload(h ShipHeader, blob []byte) ([]byte, error) {
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("ship: marshal ship header: %w", err)
	}
	p := make([]byte, 0, 4+len(hdr)+len(blob))
	p = binary.BigEndian.AppendUint32(p, uint32(len(hdr)))
	p = append(p, hdr...)
	return append(p, blob...), nil
}

// DecodeShipPayload splits a FrameShip payload back into its header
// and blob, validating structure and the header's hash against the
// blob bytes — a FrameShip that decodes cleanly is internally
// consistent.
func DecodeShipPayload(p []byte) (ShipHeader, []byte, error) {
	var h ShipHeader
	if len(p) < 4 {
		return h, nil, fmt.Errorf("ship: ship payload %d bytes, want at least 4", len(p))
	}
	hl := binary.BigEndian.Uint32(p[:4])
	if int64(hl) > int64(len(p)-4) {
		return h, nil, fmt.Errorf("ship: ship header claims %d bytes, payload has %d", hl, len(p)-4)
	}
	if err := json.Unmarshal(p[4:4+hl], &h); err != nil {
		return h, nil, fmt.Errorf("ship: decode ship header: %w", err)
	}
	blob := p[4+hl:]
	if got := crc32.ChecksumIEEE(blob); got != h.Hash {
		return h, nil, fmt.Errorf("ship: segment %d blob hash %08x, header says %08x", h.SegID, got, h.Hash)
	}
	if h.Meta.CRC != h.Hash {
		return h, nil, fmt.Errorf("ship: segment %d manifest CRC %08x disagrees with shipped hash %08x", h.SegID, h.Meta.CRC, h.Hash)
	}
	if int64(len(blob)) != h.Meta.Bytes {
		return h, nil, fmt.Errorf("ship: segment %d blob is %d bytes, manifest meta says %d", h.SegID, len(blob), h.Meta.Bytes)
	}
	return h, blob, nil
}
