package segstore

import (
	"encoding/binary"
	"math"
	"sort"

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

// colSpec ties one Sample field to its column name and encoding. The
// schema is fixed at compile time; the on-disk order is the schema
// order, but readers locate columns by name, so the format stays
// self-describing. Encoding reads row structs (the writer's input);
// decoding lands in ColumnBatch slices — the row form is derived from
// the batch afterwards when a caller wants it. Decoding is one typed
// loop per kind (decode.go), so a column names only the batch slice it
// lands in: exactly one accessor is set, the one its kind reads
// (ids for the session-ID column, whose batch slice is unsigned).
type colSpec struct {
	name   string
	kind   byte
	enc    func(buf []byte, rows []sample.Sample) []byte
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
	idCol(),
	dictCol("pop",
		func(s *sample.Sample) string { return s.PoP },
		func(b *ColumnBatch) *DictColumn { return &b.PoP }),
	dictCol("prefix",
		func(s *sample.Sample) string { return s.Prefix },
		func(b *ColumnBatch) *DictColumn { return &b.Prefix }),
	intCol("as", encZigzag,
		func(s *sample.Sample) int64 { return int64(s.ClientAS) },
		func(b *ColumnBatch) []int64 { return b.ClientAS }),
	dictCol("country",
		func(s *sample.Sample) string { return s.Country },
		func(b *ColumnBatch) *DictColumn { return &b.Country }),
	dictCol("continent",
		func(s *sample.Sample) string { return string(s.Continent) },
		func(b *ColumnBatch) *DictColumn { return &b.Continent }),
	intCol("sub", encZigzag,
		func(s *sample.Sample) int64 { return int64(s.ClientSubnet) },
		func(b *ColumnBatch) []int64 { return b.ClientSubnet }),
	dictCol("proto",
		func(s *sample.Sample) string { return string(s.Proto) },
		func(b *ColumnBatch) *DictColumn { return &b.Proto }),
	floatCol("km",
		func(s *sample.Sample) float64 { return s.DistanceKm },
		func(b *ColumnBatch) []float64 { return b.DistanceKm }),
	boolCol("xcont",
		func(s *sample.Sample) bool { return s.CrossContinent },
		func(b *ColumnBatch) []bool { return b.CrossContinent }),
	dictCol("route",
		func(s *sample.Sample) string { return s.RouteID },
		func(b *ColumnBatch) *DictColumn { return &b.Route }),
	intCol("rel", encZigzag,
		func(s *sample.Sample) int64 { return int64(s.RouteRel) },
		func(b *ColumnBatch) []int64 { return b.RouteRel }),
	intCol("aspath", encZigzag,
		func(s *sample.Sample) int64 { return int64(s.ASPathLen) },
		func(b *ColumnBatch) []int64 { return b.ASPathLen }),
	boolCol("prepended",
		func(s *sample.Sample) bool { return s.Prepended },
		func(b *ColumnBatch) []bool { return b.Prepended }),
	intCol("alt", encZigzag,
		func(s *sample.Sample) int64 { return int64(s.AltIndex) },
		func(b *ColumnBatch) []int64 { return b.AltIndex }),
	intCol("start", encDelta,
		func(s *sample.Sample) int64 { return int64(s.Start) },
		func(b *ColumnBatch) []int64 { return b.Start }),
	intCol("dur", encZigzag,
		func(s *sample.Sample) int64 { return int64(s.Duration) },
		func(b *ColumnBatch) []int64 { return b.Duration }),
	floatCol("busy",
		func(s *sample.Sample) float64 { return s.BusyFraction },
		func(b *ColumnBatch) []float64 { return b.BusyFraction }),
	intCol("bytes", encZigzag,
		func(s *sample.Sample) int64 { return s.Bytes },
		func(b *ColumnBatch) []int64 { return b.Bytes }),
	intCol("txns", encZigzag,
		func(s *sample.Sample) int64 { return int64(s.Transactions) },
		func(b *ColumnBatch) []int64 { return b.Transactions }),
	respCol(),
	boolCol("media",
		func(s *sample.Sample) bool { return s.MediaEndpoint },
		func(b *ColumnBatch) []bool { return b.MediaEndpoint }),
	intCol("minrtt", encZigzag,
		func(s *sample.Sample) int64 { return int64(s.MinRTT) },
		func(b *ColumnBatch) []int64 { return b.MinRTT }),
	intCol("hdt", encZigzag,
		func(s *sample.Sample) int64 { return int64(s.HDTested) },
		func(b *ColumnBatch) []int64 { return b.HDTested }),
	intCol("hda", encZigzag,
		func(s *sample.Sample) int64 { return int64(s.HDAchieved) },
		func(b *ColumnBatch) []int64 { return b.HDAchieved }),
	intCol("sja", encZigzag,
		func(s *sample.Sample) int64 { return int64(s.SimpleAchieved) },
		func(b *ColumnBatch) []int64 { return b.SimpleAchieved }),
	boolCol("hosting",
		func(s *sample.Sample) bool { return s.HostingProvider },
		func(b *ColumnBatch) []bool { return b.HostingProvider }),
}

// EncodeSegment encodes rows into one segment block and returns the
// bytes plus the manifest metadata (ID and File left for the writer to
// assign). Encoding is a pure function of rows: same samples, same
// bytes, regardless of worker count or call order.
func EncodeSegment(rows []sample.Sample) ([]byte, SegmentMeta) {
	// A world row encodes to ~64 bytes; room for 72 keeps the blob from
	// being regrown as the columns are appended.
	buf := make([]byte, 0, 64+72*len(rows))
	buf = append(buf, segMagic[:]...)
	buf = binary.AppendUvarint(buf, segVersion)
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	buf = binary.AppendUvarint(buf, uint64(len(schema)))
	var scratch []byte
	for _, c := range schema {
		scratch = c.enc(scratch[:0], rows)
		buf = binary.AppendUvarint(buf, uint64(len(c.name)))
		buf = append(buf, c.name...)
		buf = append(buf, c.kind)
		buf = binary.AppendUvarint(buf, uint64(len(scratch)))
		buf = append(buf, scratch...)
		buf = binary.LittleEndian.AppendUint32(buf, fileCRC(scratch))
	}

	meta := SegmentMeta{Samples: len(rows), Bytes: int64(len(buf)), CRC: fileCRC(buf)}
	countries, pops, prefixes := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for i := range rows {
		r := &rows[i]
		start := int64(r.Start)
		if i == 0 || start < meta.StartMin {
			meta.StartMin = start
		}
		if i == 0 || start > meta.StartMax {
			meta.StartMax = start
		}
		// A segment is one group's rows, so its strings repeat row to
		// row: only a value that differs from the previous row's can be
		// new to a set.
		if i == 0 || r.Country != rows[i-1].Country {
			countries[r.Country] = true
		}
		if i == 0 || r.PoP != rows[i-1].PoP {
			pops[r.PoP] = true
		}
		if i == 0 || r.Prefix != rows[i-1].Prefix {
			prefixes[r.Prefix] = true
		}
	}
	meta.Countries = sortedSet(countries)
	meta.PoPs = sortedSet(pops)
	meta.Prefixes = sortedSet(prefixes)
	return buf, meta
}

// sortedSet renders a string set deterministically.
func sortedSet(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// zigzag maps signed to unsigned so small magnitudes stay short.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// idCol is the session-ID column: delta-coded like "start", but landing
// in the batch's uint64 slice.
func idCol() colSpec {
	return colSpec{
		name: "id",
		kind: encDelta,
		enc: func(buf []byte, rows []sample.Sample) []byte {
			prev := int64(0)
			for i := range rows {
				v := int64(rows[i].SessionID)
				buf = binary.AppendUvarint(buf, zigzag(v-prev))
				prev = v
			}
			return buf
		},
		ids: func(b *ColumnBatch) []uint64 { return b.SessionID },
	}
}

// intCol encodes a signed integer field as zigzag varints, delta-coded
// when kind is encDelta.
func intCol(name string, kind byte, get func(*sample.Sample) int64, col func(*ColumnBatch) []int64) colSpec {
	return colSpec{
		name: name,
		kind: kind,
		enc: func(buf []byte, rows []sample.Sample) []byte {
			prev := int64(0)
			for i := range rows {
				v := get(&rows[i])
				if kind == encDelta {
					buf = binary.AppendUvarint(buf, zigzag(v-prev))
					prev = v
				} else {
					buf = binary.AppendUvarint(buf, zigzag(v))
				}
			}
			return buf
		},
		ints: col,
	}
}

// dictCol encodes a low-cardinality string field: the distinct values
// in first-appearance order (deterministic), then one index per row.
// Rows mostly repeat the previous row's value (a segment is one group's,
// and most columns are constant per group), so a row whose value equals
// the previous row's reuses its index instead of looking it up.
func dictCol(name string, get func(*sample.Sample) string, col func(*ColumnBatch) *DictColumn) colSpec {
	return colSpec{
		name: name,
		kind: encDict,
		enc: func(buf []byte, rows []sample.Sample) []byte {
			idx := map[string]uint64{}
			var dict []string
			var prev string
			for i := range rows {
				v := get(&rows[i])
				if i > 0 && v == prev {
					continue
				}
				prev = v
				if _, ok := idx[v]; !ok {
					idx[v] = uint64(len(dict))
					dict = append(dict, v)
				}
			}
			buf = binary.AppendUvarint(buf, uint64(len(dict)))
			for _, v := range dict {
				buf = binary.AppendUvarint(buf, uint64(len(v)))
				buf = append(buf, v...)
			}
			var id uint64
			for i := range rows {
				if v := get(&rows[i]); i == 0 || v != prev {
					id, prev = idx[v], v
				}
				buf = binary.AppendUvarint(buf, id)
			}
			return buf
		},
		dict: col,
	}
}

// floatCol stores raw IEEE-754 bits — byte-exact round trips, no
// precision games.
func floatCol(name string, get func(*sample.Sample) float64, col func(*ColumnBatch) []float64) colSpec {
	return colSpec{
		name: name,
		kind: encFloat,
		enc: func(buf []byte, rows []sample.Sample) []byte {
			for i := range rows {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(get(&rows[i])))
			}
			return buf
		},
		floats: col,
	}
}

// boolCol bitpacks a boolean field, LSB first.
func boolCol(name string, get func(*sample.Sample) bool, col func(*ColumnBatch) []bool) colSpec {
	return colSpec{
		name: name,
		kind: encBool,
		enc: func(buf []byte, rows []sample.Sample) []byte {
			var cur byte
			for i := range rows {
				if get(&rows[i]) {
					cur |= 1 << (i % 8)
				}
				if i%8 == 7 {
					buf = append(buf, cur)
					cur = 0
				}
			}
			if len(rows)%8 != 0 {
				buf = append(buf, cur)
			}
			return buf
		},
		bools: col,
	}
}

// respCol encodes the per-row ResponseBytes lists: one length per row,
// then the concatenated values. The batch holds them flattened
// (RespVals + per-row end offsets); empty and nil lists are
// indistinguishable on disk and both materialize back to nil, matching
// the field's omitempty JSON behaviour.
func respCol() colSpec {
	return colSpec{
		name: "resp",
		kind: encList,
		enc: func(buf []byte, rows []sample.Sample) []byte {
			for i := range rows {
				buf = binary.AppendUvarint(buf, uint64(len(rows[i].ResponseBytes)))
			}
			for i := range rows {
				for _, v := range rows[i].ResponseBytes {
					buf = binary.AppendUvarint(buf, zigzag(v))
				}
			}
			return buf
		},
	}
}
