package segstore

import (
	"encoding/binary"
	"errors"
	"fmt"
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
	rows, cols, rest, err := decodeHeader(data)
	if err != nil {
		return err
	}

	// Slice out every column first (cheap — no row-proportional work),
	// verifying names, kinds, and checksums before allocating rows.
	byName := make(map[string]rawColumn, len(schema))
	for i := 0; i < cols; i++ {
		rc, tail, err := sliceColumn(rest)
		if err != nil {
			return err
		}
		rest = tail
		if _, dup := byName[rc.name]; dup {
			return corruptf("column %q appears twice", rc.name)
		}
		byName[rc.name] = rc
	}
	if len(rest) != 0 {
		return corruptf("%d trailing bytes after last column", len(rest))
	}

	// Preflight sizes against the row count so a hostile header cannot
	// trigger a large allocation: every varint row costs ≥1 byte, floats
	// exactly 8, bools exactly one bit.
	for _, c := range schema {
		rc, ok := byName[c.name]
		if !ok {
			return corruptf("missing column %q", c.name)
		}
		if rc.kind != c.kind {
			return corruptf("column %q has kind %d, want %d", c.name, rc.kind, c.kind)
		}
		switch c.kind {
		case encZigzag, encDelta, encList:
			if len(rc.data) < rows {
				return corruptf("column %q: %d bytes for %d rows", c.name, len(rc.data), rows)
			}
		case encFloat:
			if len(rc.data) != 8*rows {
				return corruptf("column %q: %d bytes for %d rows", c.name, len(rc.data), rows)
			}
		case encBool:
			if len(rc.data) != (rows+7)/8 {
				return corruptf("column %q: %d bytes for %d rows", c.name, len(rc.data), rows)
			}
		}
	}

	b.reset(rows)
	for _, c := range schema {
		p := &payload{col: c.name, data: byName[c.name].data}
		if err := c.dec(p, rows, b); err != nil {
			return err
		}
	}
	b.finalize()
	return nil
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
