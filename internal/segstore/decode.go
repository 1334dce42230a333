package segstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt wraps every decode failure: truncated blocks, checksum
// mismatches, impossible lengths. Callers distinguish "bad bytes"
// (errors.Is(err, ErrCorrupt)) from I/O errors.
var ErrCorrupt = errors.New("corrupt segment")

// corruptf builds a decode error carrying ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// MaxSegmentRows bounds a segment's declared row count — far above any
// real segment (one group × window span), low enough that a hostile
// header cannot force a giant allocation before validation.
const MaxSegmentRows = 1 << 24

// payload is a bounds-checked cursor over one column's bytes.
type payload struct {
	col  string
	data []byte
	off  int
}

func (p *payload) remaining() int { return len(p.data) - p.off }

func (p *payload) corrupt(msg string) error {
	return corruptf("column %q: %s", p.col, msg)
}

func (p *payload) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.data[p.off:])
	if n <= 0 {
		return 0, p.corrupt("truncated or overlong varint")
	}
	p.off += n
	return v, nil
}

func (p *payload) bytes(n uint64) ([]byte, error) {
	if n > uint64(p.remaining()) {
		return nil, p.corrupt("length past end of payload")
	}
	b := p.data[p.off : p.off+int(n)]
	p.off += int(n)
	return b, nil
}

// done rejects trailing garbage: a column must consume exactly its
// declared payload.
func (p *payload) done() error {
	if p.remaining() != 0 {
		return p.corrupt("trailing bytes after last row")
	}
	return nil
}

// rawColumn is one column as sliced out of the block, CRC-verified but
// not yet decoded.
type rawColumn struct {
	name string
	kind byte
	data []byte
}

// DecodeSegmentColumns decodes one segment block into a fresh column
// batch — the primary decode path. Corrupt or truncated input returns
// an error wrapping ErrCorrupt — never a panic, never a silently short
// dataset.
func DecodeSegmentColumns(data []byte) (*ColumnBatch, error) {
	b := new(ColumnBatch)
	if err := decodeInto(data, b); err != nil {
		return nil, err
	}
	return b, nil
}

// decodeInto decodes a segment block into b, reusing b's column
// buffers when their capacity allows. Unknown columns (written by a
// newer schema) are skipped; missing or re-typed known columns are
// errors.
func decodeInto(data []byte, b *ColumnBatch) error {
	rows, raw, err := schemaColumns(data)
	if err != nil {
		return err
	}
	b.reset(rows)
	for i := range schema {
		p := &payload{col: schema[i].name, data: raw[i].data}
		if err := schema[i].decode(p, b); err != nil {
			return err
		}
	}
	b.finalize()
	return nil
}

// schemaColumns checks a segment block's header, columns and sizes and
// returns its row count and the schema's columns in schema order, each
// CRC-verified but not yet decoded.
func schemaColumns(data []byte) (int, []rawColumn, error) {
	rows, cols, rest, err := decodeHeader(data)
	if err != nil {
		return 0, nil, err
	}

	// Slice out every column first (cheap — no row-proportional work),
	// verifying names, kinds, and checksums before allocating rows.
	byName := make(map[string]rawColumn, len(schema))
	for i := 0; i < cols; i++ {
		rc, tail, err := sliceColumn(rest)
		if err != nil {
			return 0, nil, err
		}
		rest = tail
		if _, dup := byName[rc.name]; dup {
			return 0, nil, corruptf("column %q appears twice", rc.name)
		}
		byName[rc.name] = rc
	}
	if len(rest) != 0 {
		return 0, nil, corruptf("%d trailing bytes after last column", len(rest))
	}

	// Preflight sizes against the row count so a hostile header cannot
	// trigger a large allocation: every varint row costs ≥1 byte, floats
	// exactly 8, bools exactly one bit.
	raw := make([]rawColumn, len(schema))
	for i, c := range schema {
		rc, ok := byName[c.name]
		if !ok {
			return 0, nil, corruptf("missing column %q", c.name)
		}
		if rc.kind != c.kind {
			return 0, nil, corruptf("column %q has kind %d, want %d", c.name, rc.kind, c.kind)
		}
		switch c.kind {
		case encZigzag, encDelta, encList:
			if len(rc.data) < rows {
				return 0, nil, corruptf("column %q: %d bytes for %d rows", c.name, len(rc.data), rows)
			}
		case encFloat:
			if len(rc.data) != 8*rows {
				return 0, nil, corruptf("column %q: %d bytes for %d rows", c.name, len(rc.data), rows)
			}
		case encBool:
			if len(rc.data) != (rows+7)/8 {
				return 0, nil, corruptf("column %q: %d bytes for %d rows", c.name, len(rc.data), rows)
			}
		}
		raw[i] = rc
	}
	return rows, raw, nil
}

// decode decodes column c from p into its slice of b, which reset has
// sized to the block's rows: one typed loop per kind, chosen once per
// column.
func (c *colSpec) decode(p *payload, b *ColumnBatch) error {
	var err error
	switch c.kind {
	case encZigzag:
		err = varints(p, c.ints(b), true, false, math.MaxUint64, "")
	case encDelta:
		if c.ids != nil {
			err = varints(p, c.ids(b), true, true, math.MaxUint64, "")
		} else {
			err = varints(p, c.ints(b), true, true, math.MaxUint64, "")
		}
	case encDict:
		err = decodeDict(p, c.dict(b))
	case encFloat:
		err = decodeFloats(p, c.floats(b))
	case encBool:
		err = decodeBools(p, c.bools(b))
	case encList:
		err = decodeLists(p, b)
	}
	if err != nil {
		return err
	}
	return p.done()
}

// varints decodes len(out) varints from p into out, undoing the zigzag
// coding when zig is set and summing each value onto the one before
// when delta is; a raw value above limit is corrupt, with msg. It is the
// hot loop of every read: the cursor lives in locals, a one-byte value
// (most of them) is read inline, and a longer one goes through a byte
// loop with binary.Uvarint's overflow rule — at most
// binary.MaxVarintLen64 bytes, the last of them at most 1.
func varints[T int | int64 | uint32 | uint64](p *payload, out []T, zig, delta bool, limit uint64, msg string) error {
	data, off := p.data, p.off
	var prev T
	for i := range out {
		var u uint64
		if off < len(data) && data[off] < 0x80 {
			u = uint64(data[off])
			off++
		} else {
			var s uint
			for j := 0; ; j++ {
				if off >= len(data) || j == binary.MaxVarintLen64 {
					p.off = off
					return p.corrupt("truncated or overlong varint")
				}
				c := data[off]
				off++
				if c < 0x80 {
					if j == binary.MaxVarintLen64-1 && c > 1 {
						p.off = off
						return p.corrupt("truncated or overlong varint")
					}
					u |= uint64(c) << s
					break
				}
				u |= uint64(c&0x7f) << s
				s += 7
			}
		}
		if u > limit {
			p.off = off
			return p.corrupt(msg)
		}
		v := T(u)
		if zig {
			v = T(unzigzag(u))
		}
		if delta {
			v += prev
			prev = v
		}
		out[i] = v
	}
	p.off = off
	return nil
}

// decodeDict decodes a dictionary column: the dictionary, then one
// index into it a row.
func decodeDict(p *payload, out *DictColumn) error {
	d, err := p.uvarint()
	if err != nil {
		return err
	}
	if d > uint64(p.remaining()) {
		return p.corrupt("dictionary larger than payload")
	}
	// Indexes are stored as uint32 in the batch; the remaining-bytes
	// bound already keeps any real dictionary far below that, so this
	// only rejects multi-GiB hostile payloads.
	if d > math.MaxUint32 {
		return p.corrupt("dictionary too large")
	}
	out.Dict = out.Dict[:0]
	for i := uint64(0); i < d; i++ {
		l, err := p.uvarint()
		if err != nil {
			return err
		}
		v, err := p.bytes(l)
		if err != nil {
			return err
		}
		out.Dict = append(out.Dict, string(v))
	}
	if d == 0 {
		if len(out.Idx) == 0 {
			return nil
		}
		// Any index is out of range; read the first so that a truncated
		// one is reported as such.
		if _, err := p.uvarint(); err != nil {
			return err
		}
		return p.corrupt("dictionary index out of range")
	}
	return varints(p, out.Idx, false, false, d-1, "dictionary index out of range")
}

// decodeFloats reads raw IEEE-754 bits, 8 bytes a row.
func decodeFloats(p *payload, out []float64) error {
	if p.remaining() != 8*len(out) {
		return p.corrupt("float column length mismatch")
	}
	data := p.data[p.off:]
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	p.off += 8 * len(out)
	return nil
}

// decodeBools unpacks one bit a row, LSB first.
func decodeBools(p *payload, out []bool) error {
	if p.remaining() != (len(out)+7)/8 {
		return p.corrupt("bool column length mismatch")
	}
	data := p.data[p.off:]
	for i := range out {
		out[i] = data[i/8]&(1<<(i%8)) != 0
	}
	p.off += (len(out) + 7) / 8
	return nil
}

// decodeLists decodes the response lists: one length a row, which
// become the batch's running end offsets, then their values.
func decodeLists(p *payload, b *ColumnBatch) error {
	ends := b.RespEnds
	// Every value costs at least one payload byte, so a length above the
	// bytes left rejects absurd lists before any allocation, and the
	// running total cannot overflow.
	if err := varints(p, ends, false, false, uint64(p.remaining()), "response lists larger than payload"); err != nil {
		return err
	}
	var total uint64
	for i, l := range ends {
		total += uint64(l)
		ends[i] = int(total)
	}
	if total > uint64(p.remaining()) {
		return p.corrupt("response lists larger than payload")
	}
	b.RespVals = grow(b.RespVals, int(total))
	return varints(p, b.RespVals, true, false, math.MaxUint64, "")
}

// decodeHeader validates the magic, version, and counts; it returns
// the declared row and column counts and the first column's offset.
func decodeHeader(data []byte) (rows, cols int, rest []byte, err error) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != string(segMagic[:]) {
		return 0, 0, nil, corruptf("bad magic")
	}
	p := &payload{col: "header", data: data, off: len(segMagic)}
	ver, err := p.uvarint()
	if err != nil {
		return 0, 0, nil, err
	}
	if ver != segVersion {
		return 0, 0, nil, corruptf("segment version %d, want %d", ver, segVersion)
	}
	nRows, err := p.uvarint()
	if err != nil {
		return 0, 0, nil, err
	}
	if nRows > MaxSegmentRows {
		return 0, 0, nil, corruptf("%d rows exceeds the %d-row segment bound", nRows, MaxSegmentRows)
	}
	nCols, err := p.uvarint()
	if err != nil {
		return 0, 0, nil, err
	}
	// Each column needs ≥ 1 name byte + kind + length + CRC.
	if nCols > uint64(p.remaining())/6 {
		return 0, 0, nil, corruptf("%d columns exceed payload", nCols)
	}
	return int(nRows), int(nCols), data[p.off:], nil
}

// sliceColumn cuts one column (name, kind, payload) off the front of
// data, verifying its CRC, and returns the remainder.
func sliceColumn(data []byte) (rawColumn, []byte, error) {
	p := &payload{col: "column header", data: data}
	nameLen, err := p.uvarint()
	if err != nil {
		return rawColumn{}, nil, err
	}
	if nameLen == 0 || nameLen > 64 {
		return rawColumn{}, nil, corruptf("column name length %d", nameLen)
	}
	name, err := p.bytes(nameLen)
	if err != nil {
		return rawColumn{}, nil, err
	}
	kindB, err := p.bytes(1)
	if err != nil {
		return rawColumn{}, nil, err
	}
	payloadLen, err := p.uvarint()
	if err != nil {
		return rawColumn{}, nil, err
	}
	body, err := p.bytes(payloadLen)
	if err != nil {
		return rawColumn{}, nil, err
	}
	crcB, err := p.bytes(4)
	if err != nil {
		return rawColumn{}, nil, err
	}
	if binary.LittleEndian.Uint32(crcB) != fileCRC(body) {
		return rawColumn{}, nil, corruptf("column %q: checksum mismatch", name)
	}
	return rawColumn{name: string(name), kind: kindB[0], data: body}, data[p.off:], nil
}
