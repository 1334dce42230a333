package segstore

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"repro/internal/sample"
)

// Segment binary layout (all integers varint unless noted):
//
//	magic "EDGESEG1"                    8 bytes
//	version                             uvarint (1)
//	rows                                uvarint
//	columns                             uvarint
//	per column:
//	  len(name), name                   uvarint + bytes
//	  kind                              1 byte
//	  len(payload)                      uvarint
//	  payload                           bytes
//	  crc32(payload)                    4 bytes LE
//
// Column payloads by kind:
//
//	encZigzag  rows × zigzag varint
//	encDelta   first value zigzag varint, then zigzag varint deltas
//	encDict    dict size d, d × (uvarint len + bytes) in first-appearance
//	           order, then rows × uvarint index
//	encFloat   rows × 8-byte LE float64 bits (exact round trip)
//	encBool    ⌈rows/8⌉ bytes, LSB first
//	encList    rows × uvarint length, then Σlength × zigzag varint
var segMagic = [8]byte{'E', 'D', 'G', 'E', 'S', 'E', 'G', '1'}

const segVersion = 1

// Column encoding kinds.
const (
	encZigzag byte = 1
	encDelta  byte = 2
	encDict   byte = 3
	encFloat  byte = 4
	encBool   byte = 5
	encList   byte = 6
)

// colSpec ties one batch column to its column name and encoding. The
// schema is fixed at compile time; the on-disk order is the schema
// order, but readers locate columns by name, so the format stays
// self-describing. Both directions run through a ColumnBatch: encoding
// transposes the writer's rows into one first (EncodeSegment), and
// decoding lands in one, the row form derived from it afterwards when a
// caller wants it. Each direction is one typed loop per kind (encode
// below, decode in decode.go), so a column names only its batch slice:
// exactly one accessor is set, the one its kind reads (ids for the
// session-ID column, whose batch slice is unsigned; none for the
// response lists, which span two slices).
type colSpec struct {
	name   string
	kind   byte
	ints   func(*ColumnBatch) []int64
	ids    func(*ColumnBatch) []uint64
	dict   func(*ColumnBatch) *DictColumn
	floats func(*ColumnBatch) []float64
	bools  func(*ColumnBatch) []bool
}

// schema lists every column, in the field order of sample.Sample.
// Delta encoding is reserved for the two monotone-ish sequences
// (session IDs and start offsets ascend within a segment); plain
// zigzag covers the small counters, dictionaries the low-cardinality
// strings.
var schema = []colSpec{
	{name: "id", kind: encDelta, ids: func(b *ColumnBatch) []uint64 { return b.SessionID }},
	{name: "pop", kind: encDict, dict: func(b *ColumnBatch) *DictColumn { return &b.PoP }},
	{name: "prefix", kind: encDict, dict: func(b *ColumnBatch) *DictColumn { return &b.Prefix }},
	{name: "as", kind: encZigzag, ints: func(b *ColumnBatch) []int64 { return b.ClientAS }},
	{name: "country", kind: encDict, dict: func(b *ColumnBatch) *DictColumn { return &b.Country }},
	{name: "continent", kind: encDict, dict: func(b *ColumnBatch) *DictColumn { return &b.Continent }},
	{name: "sub", kind: encZigzag, ints: func(b *ColumnBatch) []int64 { return b.ClientSubnet }},
	{name: "proto", kind: encDict, dict: func(b *ColumnBatch) *DictColumn { return &b.Proto }},
	{name: "km", kind: encFloat, floats: func(b *ColumnBatch) []float64 { return b.DistanceKm }},
	{name: "xcont", kind: encBool, bools: func(b *ColumnBatch) []bool { return b.CrossContinent }},
	{name: "route", kind: encDict, dict: func(b *ColumnBatch) *DictColumn { return &b.Route }},
	{name: "rel", kind: encZigzag, ints: func(b *ColumnBatch) []int64 { return b.RouteRel }},
	{name: "aspath", kind: encZigzag, ints: func(b *ColumnBatch) []int64 { return b.ASPathLen }},
	{name: "prepended", kind: encBool, bools: func(b *ColumnBatch) []bool { return b.Prepended }},
	{name: "alt", kind: encZigzag, ints: func(b *ColumnBatch) []int64 { return b.AltIndex }},
	{name: "start", kind: encDelta, ints: func(b *ColumnBatch) []int64 { return b.Start }},
	{name: "dur", kind: encZigzag, ints: func(b *ColumnBatch) []int64 { return b.Duration }},
	{name: "busy", kind: encFloat, floats: func(b *ColumnBatch) []float64 { return b.BusyFraction }},
	{name: "bytes", kind: encZigzag, ints: func(b *ColumnBatch) []int64 { return b.Bytes }},
	{name: "txns", kind: encZigzag, ints: func(b *ColumnBatch) []int64 { return b.Transactions }},
	// The response lists: one length a row, then the concatenated
	// values. Empty and nil lists are indistinguishable on disk and both
	// materialize back to nil, matching the field's omitempty JSON
	// behaviour.
	{name: "resp", kind: encList},
	{name: "media", kind: encBool, bools: func(b *ColumnBatch) []bool { return b.MediaEndpoint }},
	{name: "minrtt", kind: encZigzag, ints: func(b *ColumnBatch) []int64 { return b.MinRTT }},
	{name: "hdt", kind: encZigzag, ints: func(b *ColumnBatch) []int64 { return b.HDTested }},
	{name: "hda", kind: encZigzag, ints: func(b *ColumnBatch) []int64 { return b.HDAchieved }},
	{name: "sja", kind: encZigzag, ints: func(b *ColumnBatch) []int64 { return b.SimpleAchieved }},
	{name: "hosting", kind: encBool, bools: func(b *ColumnBatch) []bool { return b.HostingProvider }},
}

// encodePool recycles the batches EncodeSegment transposes rows into.
var encodePool sync.Pool

// EncodeSegment encodes rows into one segment block and returns the
// bytes plus the manifest metadata (ID and File left for the writer to
// assign). Encoding is a pure function of rows: same samples, same
// bytes, regardless of worker count or call order. The rows are
// transposed once into a pooled batch, each column is encoded from its
// slice, and the metadata is read off the batch, which is released
// before the call returns.
func EncodeSegment(rows []sample.Sample) ([]byte, SegmentMeta) {
	b := acquire(&encodePool)
	defer b.Release()
	b.transpose(rows)
	// A world row encodes to ~64 bytes; room for 72 keeps the blob from
	// being regrown as the columns are appended.
	buf := make([]byte, 0, 64+72*len(rows))
	buf = append(buf, segMagic[:]...)
	buf = binary.AppendUvarint(buf, segVersion)
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	buf = binary.AppendUvarint(buf, uint64(len(schema)))
	for i := range schema {
		c := &schema[i]
		buf = binary.AppendUvarint(buf, uint64(len(c.name)))
		buf = append(buf, c.name...)
		buf = append(buf, c.kind)
		// The payload is encoded in place, then moved up past its
		// length, which leads it but is known only once it is written.
		at := len(buf)
		buf = c.encode(buf, b)
		n := len(buf) - at
		var l [binary.MaxVarintLen64]byte
		ln := binary.PutUvarint(l[:], uint64(n))
		buf = append(buf, l[:ln]...)
		copy(buf[at+ln:], buf[at:at+n])
		copy(buf[at:], l[:ln])
		buf = binary.LittleEndian.AppendUint32(buf, fileCRC(buf[at+ln:]))
	}
	return buf, SegmentMeta{
		Samples: len(rows), Bytes: int64(len(buf)), CRC: fileCRC(buf),
		StartMin: b.StartMin, StartMax: b.StartMax,
		Countries: sortedSet(b.Country.Dict), PoPs: sortedSet(b.PoP.Dict), Prefixes: sortedSet(b.Prefix.Dict),
	}
}

// sortedSet renders a dictionary's distinct values in sorted order, in
// an array of its own (the dictionary's goes back to the pool).
func sortedSet(dict []string) []string {
	if len(dict) == 0 {
		return nil
	}
	out := slices.Clone(dict)
	slices.Sort(out)
	return out
}

// zigzag maps signed to unsigned so small magnitudes stay short.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encode appends column c's payload, read from its slice of b, to buf:
// one typed loop per kind, chosen once per column.
func (c *colSpec) encode(buf []byte, b *ColumnBatch) []byte {
	switch c.kind {
	case encZigzag:
		return appendVarints(buf, c.ints(b), true, false)
	case encDelta:
		if c.ids != nil {
			return appendVarints(buf, c.ids(b), true, true)
		}
		return appendVarints(buf, c.ints(b), true, true)
	case encDict:
		d := c.dict(b)
		buf = binary.AppendUvarint(buf, uint64(len(d.Dict)))
		for _, v := range d.Dict {
			buf = binary.AppendUvarint(buf, uint64(len(v)))
			buf = append(buf, v...)
		}
		return appendVarints(buf, d.Idx, false, false)
	case encFloat:
		for _, v := range c.floats(b) {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	case encBool:
		// One bit a row, LSB first.
		vals := c.bools(b)
		for lo := 0; lo < len(vals); lo += 8 {
			var cur byte
			for j, v := range vals[lo:min(lo+8, len(vals))] {
				if v {
					cur |= 1 << j
				}
			}
			buf = append(buf, cur)
		}
	case encList:
		// The running end offsets, delta-coded, are the lengths.
		buf = appendVarints(buf, b.RespEnds, false, true)
		return appendVarints(buf, b.RespVals, true, false)
	}
	return buf
}

// appendVarints appends one varint a value of vals to buf: each value
// less the one before when delta is set, zigzag-coded when zig is. It is
// the hot loop of every write; a one-byte value (most of them) is
// appended inline. An unsigned delta wraps as the signed one does, so
// the session-ID column codes as if it were int64.
func appendVarints[T int | int64 | uint32 | uint64](buf []byte, vals []T, zig, delta bool) []byte {
	var prev T
	for _, v := range vals {
		if delta {
			v, prev = v-prev, v
		}
		u := uint64(v)
		if zig {
			u = zigzag(int64(v))
		}
		if u < 0x80 {
			buf = append(buf, byte(u))
		} else {
			buf = binary.AppendUvarint(buf, u)
		}
	}
	return buf
}
