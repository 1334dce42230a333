package segstore

import (
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sample"
)

// The encoder as it was before dictionary columns and the manifest's
// string sets reused the previous row's value: one map lookup per row.
// encodeSegmentOracle is EncodeSegment with every dictionary column
// encoded by dictEncOracle and the metadata gathered by metaOracle,
// both kept verbatim from that encoder.

// oracleDictGetters reads each dictionary column's field, by column name.
var oracleDictGetters = map[string]func(*sample.Sample) string{
	"pop":       func(s *sample.Sample) string { return s.PoP },
	"prefix":    func(s *sample.Sample) string { return s.Prefix },
	"country":   func(s *sample.Sample) string { return s.Country },
	"continent": func(s *sample.Sample) string { return string(s.Continent) },
	"proto":     func(s *sample.Sample) string { return string(s.Proto) },
	"route":     func(s *sample.Sample) string { return s.RouteID },
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
	meta.Countries = sortedSet(countries)
	meta.PoPs = sortedSet(pops)
	meta.Prefixes = sortedSet(prefixes)
	return meta
}

func encodeSegmentOracle(t *testing.T, rows []sample.Sample) ([]byte, SegmentMeta) {
	buf := make([]byte, 0, 64+32*len(rows))
	buf = append(buf, segMagic[:]...)
	buf = binary.AppendUvarint(buf, segVersion)
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	buf = binary.AppendUvarint(buf, uint64(len(schema)))
	var scratch []byte
	for _, c := range schema {
		enc := c.enc
		if c.kind == encDict {
			get, ok := oracleDictGetters[c.name]
			if !ok {
				t.Fatalf("dictionary column %q has no oracle getter", c.name)
			}
			enc = dictEncOracle(get)
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

// oracleRows builds one row per byte of data. The byte's bits pick each
// string field from a vocabulary that holds "" and values sharing
// prefixes, so runs, alternation and empty values (a first-row "" among
// them) all arise; the other fields follow the byte too.
func oracleRows(data []byte) []sample.Sample {
	vocab := []string{"", "a", "b", "ab"}
	rows := make([]sample.Sample, len(data))
	for i, b := range data {
		rows[i] = sample.Sample{
			PoP:       vocab[b&3],
			Prefix:    vocab[b>>2&3],
			Country:   vocab[b>>4&3],
			Continent: geo.Continent(vocab[b>>6]),
			Proto:     sample.Protocol(vocab[(b>>1)&3]),
			RouteID:   vocab[(b>>3)&3],
			SessionID: uint64(i),
			Start:     time.Duration(b) * time.Millisecond,
			Bytes:     int64(b),
		}
	}
	return rows
}

// FuzzEncodeSegmentMatchesOracle: the encoder's blob and SegmentMeta are
// byte-equal to the map-per-row encoder's over any rows of repeated,
// alternating and empty string values.
func FuzzEncodeSegmentMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})                      // one row, every string ""
	f.Add([]byte{0, 0, 0, 0xff, 0xff, 0}) // a first-row "" run, then values
	f.Add([]byte{0x55, 0xaa, 0x55, 0xaa}) // alternating
	f.Add([]byte{0xff, 0, 0xff, 0, 0, 0}) // alternating into "", then a run
	f.Add([]byte{1, 1, 1, 2, 2, 3, 3, 3}) // runs
	f.Add([]byte{0, 1, 0, 1, 0, 0, 1, 1}) // "" alternating with a value
	f.Add([]byte{0x1b, 0x1b, 0xe4, 0xe4}) // every column moves at once
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
