package segstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/geo"
	"repro/internal/sample"
)

// The encoder as it was before it encoded from a transposed batch: a
// closure a column, reading each row through a field getter.
// encodeSegmentOracle runs those closures, kept verbatim from that
// encoder, except that every dictionary column is encoded by
// dictEncOracle and the metadata gathered by metaOracle, both kept
// verbatim from the encoder before dictionary columns and the
// manifest's string sets reused the previous row's value (one map
// lookup a row).

// oracleEnc is each column's encoder closure, by column name.
var oracleEnc = map[string]func(buf []byte, rows []sample.Sample) []byte{
	"id":        idEncOracle(),
	"pop":       dictEncOracle(func(s *sample.Sample) string { return s.PoP }),
	"prefix":    dictEncOracle(func(s *sample.Sample) string { return s.Prefix }),
	"as":        intEncOracle(encZigzag, func(s *sample.Sample) int64 { return int64(s.ClientAS) }),
	"country":   dictEncOracle(func(s *sample.Sample) string { return s.Country }),
	"continent": dictEncOracle(func(s *sample.Sample) string { return string(s.Continent) }),
	"sub":       intEncOracle(encZigzag, func(s *sample.Sample) int64 { return int64(s.ClientSubnet) }),
	"proto":     dictEncOracle(func(s *sample.Sample) string { return string(s.Proto) }),
	"km":        floatEncOracle(func(s *sample.Sample) float64 { return s.DistanceKm }),
	"xcont":     boolEncOracle(func(s *sample.Sample) bool { return s.CrossContinent }),
	"route":     dictEncOracle(func(s *sample.Sample) string { return s.RouteID }),
	"rel":       intEncOracle(encZigzag, func(s *sample.Sample) int64 { return int64(s.RouteRel) }),
	"aspath":    intEncOracle(encZigzag, func(s *sample.Sample) int64 { return int64(s.ASPathLen) }),
	"prepended": boolEncOracle(func(s *sample.Sample) bool { return s.Prepended }),
	"alt":       intEncOracle(encZigzag, func(s *sample.Sample) int64 { return int64(s.AltIndex) }),
	"start":     intEncOracle(encDelta, func(s *sample.Sample) int64 { return int64(s.Start) }),
	"dur":       intEncOracle(encZigzag, func(s *sample.Sample) int64 { return int64(s.Duration) }),
	"busy":      floatEncOracle(func(s *sample.Sample) float64 { return s.BusyFraction }),
	"bytes":     intEncOracle(encZigzag, func(s *sample.Sample) int64 { return s.Bytes }),
	"txns":      intEncOracle(encZigzag, func(s *sample.Sample) int64 { return int64(s.Transactions) }),
	"resp":      respEncOracle(),
	"media":     boolEncOracle(func(s *sample.Sample) bool { return s.MediaEndpoint }),
	"minrtt":    intEncOracle(encZigzag, func(s *sample.Sample) int64 { return int64(s.MinRTT) }),
	"hdt":       intEncOracle(encZigzag, func(s *sample.Sample) int64 { return int64(s.HDTested) }),
	"hda":       intEncOracle(encZigzag, func(s *sample.Sample) int64 { return int64(s.HDAchieved) }),
	"sja":       intEncOracle(encZigzag, func(s *sample.Sample) int64 { return int64(s.SimpleAchieved) }),
	"hosting":   boolEncOracle(func(s *sample.Sample) bool { return s.HostingProvider }),
}

func idEncOracle() func(buf []byte, rows []sample.Sample) []byte {
	return func(buf []byte, rows []sample.Sample) []byte {
		prev := int64(0)
		for i := range rows {
			v := int64(rows[i].SessionID)
			buf = binary.AppendUvarint(buf, zigzag(v-prev))
			prev = v
		}
		return buf
	}
}

func intEncOracle(kind byte, get func(*sample.Sample) int64) func(buf []byte, rows []sample.Sample) []byte {
	return func(buf []byte, rows []sample.Sample) []byte {
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
	}
}

func floatEncOracle(get func(*sample.Sample) float64) func(buf []byte, rows []sample.Sample) []byte {
	return func(buf []byte, rows []sample.Sample) []byte {
		for i := range rows {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(get(&rows[i])))
		}
		return buf
	}
}

func boolEncOracle(get func(*sample.Sample) bool) func(buf []byte, rows []sample.Sample) []byte {
	return func(buf []byte, rows []sample.Sample) []byte {
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
	}
}

func respEncOracle() func(buf []byte, rows []sample.Sample) []byte {
	return func(buf []byte, rows []sample.Sample) []byte {
		for i := range rows {
			buf = binary.AppendUvarint(buf, uint64(len(rows[i].ResponseBytes)))
		}
		for i := range rows {
			for _, v := range rows[i].ResponseBytes {
				buf = binary.AppendUvarint(buf, zigzag(v))
			}
		}
		return buf
	}
}

func dictEncOracle(get func(*sample.Sample) string) func(buf []byte, rows []sample.Sample) []byte {
	return func(buf []byte, rows []sample.Sample) []byte {
		idx := map[string]uint64{}
		var dict []string
		for i := range rows {
			v := get(&rows[i])
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
		for i := range rows {
			buf = binary.AppendUvarint(buf, idx[get(&rows[i])])
		}
		return buf
	}
}

func metaOracle(rows []sample.Sample, meta SegmentMeta) SegmentMeta {
	countries, pops, prefixes := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for i := range rows {
		start := int64(rows[i].Start)
		if i == 0 || start < meta.StartMin {
			meta.StartMin = start
		}
		if i == 0 || start > meta.StartMax {
			meta.StartMax = start
		}
		countries[rows[i].Country] = true
		pops[rows[i].PoP] = true
		prefixes[rows[i].Prefix] = true
	}
	meta.Countries = sortedSetOracle(countries)
	meta.PoPs = sortedSetOracle(pops)
	meta.Prefixes = sortedSetOracle(prefixes)
	return meta
}

func sortedSetOracle(m map[string]bool) []string {
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

func encodeSegmentOracle(t *testing.T, rows []sample.Sample) ([]byte, SegmentMeta) {
	buf := make([]byte, 0, 64+32*len(rows))
	buf = append(buf, segMagic[:]...)
	buf = binary.AppendUvarint(buf, segVersion)
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	buf = binary.AppendUvarint(buf, uint64(len(schema)))
	var scratch []byte
	for _, c := range schema {
		enc, ok := oracleEnc[c.name]
		if !ok {
			t.Fatalf("column %q has no oracle encoder", c.name)
		}
		scratch = enc(scratch[:0], rows)
		buf = binary.AppendUvarint(buf, uint64(len(c.name)))
		buf = append(buf, c.name...)
		buf = append(buf, c.kind)
		buf = binary.AppendUvarint(buf, uint64(len(scratch)))
		buf = append(buf, scratch...)
		buf = binary.LittleEndian.AppendUint32(buf, fileCRC(scratch))
	}
	return buf, metaOracle(rows, SegmentMeta{Samples: len(rows), Bytes: int64(len(buf)), CRC: fileCRC(buf)})
}

// oracleInts are integers a fuzz byte picks directly: both extremes and
// their neighbours, the 32-bit edges, and the values either side of the
// one- and two-byte zigzag varint edges.
var oracleInts = [16]int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	math.MinInt32, math.MaxInt32, -1 << 62, 1 << 62, -65, -64, 63, 64, -8193, -8192, 8191, 8192}

// oracleInt maps a fuzz byte to an integer of either sign and any
// varint length, 1 to 10 bytes: the top sixteen bytes pick oracleInts,
// the rest scale their low nibble, taken as signed, by a power of 16
// that their high nibble picks.
func oracleInt(b byte) int64 {
	if b >= 0xf0 {
		return oracleInts[b&0xf]
	}
	return int64(int8(b<<4)>>4) << (b >> 4 * 4)
}

// oracleFloats are the floats whose bits a round trip must keep.
var oracleFloats = [8]float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.MaxFloat64, math.SmallestNonzeroFloat64, -1.5}

// oracleFloat maps a fuzz byte to a float: one of oracleFloats, or a
// third of the byte taken as signed.
func oracleFloat(b byte) float64 {
	if b&8 != 0 {
		return oracleFloats[b&7]
	}
	return float64(int8(b)) / 3
}

// oracleRows builds one row per byte of data. The byte's bits pick each
// string field but RouteID from a vocabulary that holds "" and values
// sharing prefixes, so runs, alternation and empty values (a first-row
// "" among them) all arise; RouteID takes one of 32 values, so that a
// dictionary can grow past a handful of entries. Every other field follows a byte of its own, k bytes
// on from the row's (wrapping), so that each moves from row to row
// independently of the others: integers of either sign up to the
// extremes (SessionID and Start rise and fall, for the delta columns),
// floats among them NaN, −0 and ±Inf, bools in patterns that cross
// byte edges once there are more than eight rows, and response lists
// of zero to four such integers.
func oracleRows(data []byte) []sample.Sample {
	vocab := []string{"", "a", "b", "ab"}
	var wide [32]string
	for j := 1; j < len(wide); j++ {
		wide[j] = fmt.Sprintf("r%d", j)
	}
	rows := make([]sample.Sample, len(data))
	for i, b := range data {
		at := func(k int) byte { return data[(i+k)%len(data)] }
		var resp []int64
		for j := 0; j < int(at(5)%5); j++ {
			resp = append(resp, oracleInt(at(6+j)))
		}
		rows[i] = sample.Sample{
			SessionID:       uint64(oracleInt(at(1))),
			PoP:             vocab[b&3],
			Prefix:          vocab[b>>2&3],
			ClientAS:        int(oracleInt(at(2))),
			Country:         vocab[b>>4&3],
			Continent:       geo.Continent(vocab[b>>6]),
			ClientSubnet:    at(3),
			Proto:           sample.Protocol(vocab[(b>>1)&3]),
			DistanceKm:      oracleFloat(at(4)),
			CrossContinent:  at(1)&1 != 0,
			RouteID:         wide[at(18)&31],
			RouteRel:        bgp.RelType(oracleInt(at(7))),
			ASPathLen:       int(oracleInt(at(8))),
			Prepended:       at(2)&2 != 0,
			AltIndex:        int(oracleInt(at(9))),
			Start:           time.Duration(oracleInt(b)),
			Duration:        time.Duration(oracleInt(at(10))),
			BusyFraction:    oracleFloat(at(11)),
			Bytes:           oracleInt(at(12)),
			Transactions:    int(oracleInt(at(13))),
			ResponseBytes:   resp,
			MediaEndpoint:   at(3)&4 != 0,
			MinRTT:          time.Duration(oracleInt(at(14))),
			HDTested:        int(oracleInt(at(15))),
			HDAchieved:      int(oracleInt(at(16))),
			SimpleAchieved:  int(oracleInt(at(17))),
			HostingProvider: at(4)&8 != 0,
		}
	}
	return rows
}

// FuzzEncodeSegmentMatchesOracle: the encoder's blob and SegmentMeta are
// byte-equal to the per-column closures' over any rows of repeated,
// alternating and empty string values, dictionaries of up to 32 values,
// and extreme, non-monotone and special numbers.
func FuzzEncodeSegmentMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})                      // one row, every string ""
	f.Add([]byte{0, 0, 0, 0xff, 0xff, 0}) // a first-row "" run, then values
	f.Add([]byte{0x55, 0xaa, 0x55, 0xaa}) // alternating
	f.Add([]byte{0xff, 0, 0xff, 0, 0, 0}) // alternating into "", then a run
	f.Add([]byte{1, 1, 1, 2, 2, 3, 3, 3}) // runs
	f.Add([]byte{0, 1, 0, 1, 0, 0, 1, 1}) // "" alternating with a value
	f.Add([]byte{0x1b, 0x1b, 0xe4, 0xe4}) // every column moves at once
	// The integer extremes, over nine rows.
	f.Add([]byte{0xf0, 0xf1, 0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6})
	// Special floats, ten-byte varints.
	f.Add([]byte{0x0c, 0x0d, 0x0e, 0x0f, 0x08, 0x09, 0x0a, 0x0b, 0xf8, 0x7f})
	// Either side of the one-byte varint edge (63, 64, -64, -65, ±128).
	f.Add([]byte{0x14, 0xfa, 0xfb, 0xf8, 0xf9, 0x18, 0x13, 0x14, 0xfb})
	// Seventeen rows of everything: bools across two byte edges.
	f.Add([]byte{0xff, 0xfe, 0x01, 0x80, 0x7f, 0xe0, 0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87, 0x98, 0xa9, 0xba})
	// Forty rows whose RouteIDs pass sixteen distinct values mid-segment
	// and then repeat earlier ones.
	forty := make([]byte, 40)
	for i := range forty {
		forty[i] = byte(i)
	}
	f.Add(forty)
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := oracleRows(data)
		blob, meta := EncodeSegment(rows)
		wantBlob, wantMeta := encodeSegmentOracle(t, rows)
		if string(blob) != string(wantBlob) {
			t.Fatalf("%d rows: blob differs from the oracle's (%d bytes vs %d)", len(rows), len(blob), len(wantBlob))
		}
		if !reflect.DeepEqual(meta, wantMeta) {
			t.Fatalf("%d rows: meta %+v, oracle %+v", len(rows), meta, wantMeta)
		}
	})
}

// A world's segments, one group's chunk at a time as the writer cuts
// them, encode byte-equal to the oracle too.
func TestEncodeSegmentMatchesOracleOnWorldRows(t *testing.T) {
	rows := testSamples(t, 13, 5, 1)
	for lo := 0; lo < len(rows); {
		hi := lo + 1
		for hi < len(rows) && rows[hi].PoP == rows[lo].PoP && rows[hi].Prefix == rows[lo].Prefix {
			hi++
		}
		blob, meta := EncodeSegment(rows[lo:hi])
		wantBlob, wantMeta := encodeSegmentOracle(t, rows[lo:hi])
		if string(blob) != string(wantBlob) || !reflect.DeepEqual(meta, wantMeta) {
			t.Fatalf("rows [%d, %d): encoding differs from the oracle's", lo, hi)
		}
		lo = hi
	}
	blob, meta := EncodeSegment(rows)
	if wantBlob, wantMeta := encodeSegmentOracle(t, rows); string(blob) != string(wantBlob) || !reflect.DeepEqual(meta, wantMeta) {
		t.Fatal("the whole world's rows encode differently from the oracle")
	}
}
