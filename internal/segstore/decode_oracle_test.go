package segstore

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/sample"
	"repro/internal/world"
)

// The decoder as it was before each column kind decoded in one typed
// loop: a closure a column, one binary.Uvarint call a value. The
// closures below are kept verbatim from it; decodeOracle runs them over
// the columns schemaColumns checked, as decodeInto runs its loops.

func decodeOracle(data []byte) (*ColumnBatch, error) {
	rows, raw, err := schemaColumns(data)
	if err != nil {
		return nil, err
	}
	b := new(ColumnBatch)
	b.reset(rows)
	for i, c := range schema {
		p := &payload{col: c.name, data: raw[i].data}
		if err := oracleDec(c)(p, rows, b); err != nil {
			return nil, err
		}
	}
	b.finalize()
	return b, nil
}

// oracleDec returns the closure the old decoder held for column c.
func oracleDec(c colSpec) func(p *payload, n int, b *ColumnBatch) error {
	switch {
	case c.ids != nil:
		return idDecOracle()
	case c.ints != nil:
		return intDecOracle(c.kind, c.ints)
	case c.dict != nil:
		return dictDecOracle(c.dict)
	case c.floats != nil:
		return floatDecOracle(c.floats)
	case c.bools != nil:
		return boolDecOracle(c.bools)
	default:
		return respDecOracle()
	}
}

func idDecOracle() func(p *payload, n int, b *ColumnBatch) error {
	return func(p *payload, n int, b *ColumnBatch) error {
		prev := int64(0)
		for i := 0; i < n; i++ {
			u, err := p.uvarint()
			if err != nil {
				return err
			}
			prev += unzigzag(u)
			b.SessionID[i] = uint64(prev)
		}
		return p.done()
	}
}

func intDecOracle(kind byte, col func(*ColumnBatch) []int64) func(p *payload, n int, b *ColumnBatch) error {
	return func(p *payload, n int, b *ColumnBatch) error {
		out := col(b)
		prev := int64(0)
		for i := 0; i < n; i++ {
			u, err := p.uvarint()
			if err != nil {
				return err
			}
			v := unzigzag(u)
			if kind == encDelta {
				v += prev
				prev = v
			}
			out[i] = v
		}
		return p.done()
	}
}

func dictDecOracle(col func(*ColumnBatch) *DictColumn) func(p *payload, n int, b *ColumnBatch) error {
	return func(p *payload, n int, b *ColumnBatch) error {
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
		out := col(b)
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
		for i := 0; i < n; i++ {
			j, err := p.uvarint()
			if err != nil {
				return err
			}
			if j >= d {
				return p.corrupt("dictionary index out of range")
			}
			out.Idx[i] = uint32(j)
		}
		return p.done()
	}
}

func floatDecOracle(col func(*ColumnBatch) []float64) func(p *payload, n int, b *ColumnBatch) error {
	return func(p *payload, n int, b *ColumnBatch) error {
		if p.remaining() != 8*n {
			return p.corrupt("float column length mismatch")
		}
		out := col(b)
		for i := 0; i < n; i++ {
			v, err := p.bytes(8)
			if err != nil {
				return err
			}
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(v))
		}
		return p.done()
	}
}

func boolDecOracle(col func(*ColumnBatch) []bool) func(p *payload, n int, b *ColumnBatch) error {
	return func(p *payload, n int, b *ColumnBatch) error {
		if p.remaining() != (n+7)/8 {
			return p.corrupt("bool column length mismatch")
		}
		out := col(b)
		for i := 0; i < n; i++ {
			if i%8 == 0 {
				if _, err := p.bytes(1); err != nil {
					return err
				}
			}
			out[i] = p.data[p.off-1]&(1<<(i%8)) != 0
		}
		return p.done()
	}
}

func respDecOracle() func(p *payload, n int, b *ColumnBatch) error {
	return func(p *payload, n int, b *ColumnBatch) error {
		var total uint64
		for i := 0; i < n; i++ {
			l, err := p.uvarint()
			if err != nil {
				return err
			}
			// Every value costs at least one payload byte, so this bound
			// rejects absurd list lengths before any allocation.
			if l > uint64(p.remaining()) {
				return p.corrupt("response lists larger than payload")
			}
			total += l
			b.RespEnds[i] = int(total)
		}
		if total > uint64(p.remaining()) {
			return p.corrupt("response lists larger than payload")
		}
		b.RespVals = grow(b.RespVals, int(total))
		for j := range b.RespVals {
			u, err := p.uvarint()
			if err != nil {
				return err
			}
			b.RespVals[j] = unzigzag(u)
		}
		return p.done()
	}
}

// assembleSegment builds a segment block of rows rows from one payload
// a schema column, each under its own CRC.
func assembleSegment(rows int, payloads [][]byte) []byte {
	buf := append([]byte{}, segMagic[:]...)
	buf = binary.AppendUvarint(buf, segVersion)
	buf = binary.AppendUvarint(buf, uint64(rows))
	buf = binary.AppendUvarint(buf, uint64(len(schema)))
	for i, c := range schema {
		buf = binary.AppendUvarint(buf, uint64(len(c.name)))
		buf = append(buf, c.name...)
		buf = append(buf, c.kind)
		buf = binary.AppendUvarint(buf, uint64(len(payloads[i])))
		buf = append(buf, payloads[i]...)
		buf = binary.LittleEndian.AppendUint32(buf, fileCRC(payloads[i]))
	}
	return buf
}

// schemaIndex is column name's place in the schema.
func schemaIndex(t testing.TB, name string) uint8 {
	for i, c := range schema {
		if c.name == name {
			return uint8(i)
		}
	}
	t.Fatalf("no column %q", name)
	return 0
}

// FuzzDecodeMatchesOracle: a segment whose one column payload the
// fuzzer chose — the column's CRC recomputed, so that the bytes reach
// the varint loops instead of dying at the checksum — decodes to the
// old decoder's rows, or fails as it does, with ErrCorrupt.
func FuzzDecodeMatchesOracle(f *testing.F) {
	base := testSamples(f, 21, 3, 1)[:6]
	valid, _ := EncodeSegment(base)
	_, raw, err := schemaColumns(valid)
	if err != nil {
		f.Fatal(err)
	}
	payloads := make([][]byte, len(raw))
	for i, rc := range raw {
		payloads[i] = rc.data
		f.Add(uint8(i), rc.data)
	}
	rows := len(base)
	zeros := make([]byte, rows-1)
	with := func(head []byte, tail ...byte) []byte {
		return append(append(append([]byte{}, head...), zeros...), tail...)
	}
	maxU64 := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	over := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}
	long := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80, 0x00}
	for _, name := range []string{"id", "as", "start"} {
		col := schemaIndex(f, name)
		f.Add(col, with(maxU64))             // ten bytes, the largest value: valid
		f.Add(col, with(over))               // ten bytes, the last above 1: overflow
		f.Add(col, with(long))               // eleven bytes: overlong
		f.Add(col, with(nil, 0x80))          // the last value truncated
		f.Add(col, with([]byte{0x81, 0x01})) // a two-byte value
	}
	pop := schemaIndex(f, "pop")
	f.Add(pop, append([]byte{1, 1, 'x'}, 0, 0, 0, 0, 0, 1)) // index 1 of a one-entry dictionary
	f.Add(pop, append([]byte{0}, 0, 0, 0, 0, 0, 0))         // any index of an empty dictionary
	f.Add(pop, append([]byte{1, 1, 'x'}, 0, 0, 0, 0, 0, 0x80))
	km := schemaIndex(f, "km")
	f.Add(km, append(make([]byte, 8*(rows-1)), 0, 0, 0, 0, 0, 0, 0xf8, 0x7f)) // a NaN
	resp := schemaIndex(f, "resp")
	f.Add(resp, with([]byte{200}, 1, 2, 3))         // a list longer than the payload
	f.Add(resp, with([]byte{3}, 1, 2, 3))           // three values, in place
	f.Add(resp, with([]byte{2}, 1, 2, 3))           // a trailing byte
	f.Add(resp, with(over, 1))                      // an overflowing length
	f.Add(resp, append(with([]byte{1}), maxU64...)) // the largest value as a list entry

	f.Fuzz(func(t *testing.T, col uint8, p []byte) {
		cols := append([][]byte{}, payloads...)
		cols[int(col)%len(cols)] = p
		data := assembleSegment(rows, cols)
		got, err := DecodeSegmentColumns(data)
		want, werr := decodeOracle(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("decode error %v, oracle error %v", err, werr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || !errors.Is(werr, ErrCorrupt) {
				t.Fatalf("errors %v and %v: both must wrap ErrCorrupt", err, werr)
			}
			return
		}
		if g, w := got.AppendRows(nil), want.AppendRows(nil); !rowsEqual(g, w) {
			t.Fatalf("decoded rows differ from the oracle's:\n%+v\n%+v", g, w)
		}
	})
}

// rowsEqual is reflect.DeepEqual over rows with the two float fields
// compared bit for bit, so that a NaN a payload spells equals itself.
func rowsEqual(a, b []sample.Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.DistanceKm) != math.Float64bits(y.DistanceKm) ||
			math.Float64bits(x.BusyFraction) != math.Float64bits(y.BusyFraction) {
			return false
		}
		x.DistanceKm, x.BusyFraction, y.DistanceKm, y.BusyFraction = 0, 0, 0, 0
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// A world's segments decode to the oracle's batches.
func TestDecodeMatchesOracleOnWorldRows(t *testing.T) {
	for _, seg := range worldSegments(testSamples(t, 13, 5, 2)) {
		got, err := DecodeSegmentColumns(seg.blob)
		if err != nil {
			t.Fatal(err)
		}
		want, err := decodeOracle(seg.blob)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("a %d-row segment decodes differently from the oracle", seg.rows)
		}
	}
}

type encodedSegment struct {
	blob []byte
	rows int
}

// worldSegments cuts rows as the dataset writer does, one segment a
// group a day, and encodes each.
func worldSegments(rows []sample.Sample) []encodedSegment {
	var segs []encodedSegment
	for _, seg := range segmentRows(rows) {
		blob, _ := EncodeSegment(seg)
		segs = append(segs, encodedSegment{blob: blob, rows: len(seg)})
	}
	return segs
}

// segmentRows cuts rows as the dataset writer does, one segment a group
// a day.
func segmentRows(rows []sample.Sample) [][]sample.Sample {
	var segs [][]sample.Sample
	day := func(s *sample.Sample) time.Duration { return s.Start / (24 * time.Hour) }
	for lo := 0; lo < len(rows); {
		hi := lo + 1
		for hi < len(rows) && rows[hi].Key() == rows[lo].Key() && day(&rows[hi]) == day(&rows[lo]) {
			hi++
		}
		segs = append(segs, rows[lo:hi])
		lo = hi
	}
	return segs
}

// A world's segments, transposed one after another into the pooled
// batch the encoder uses, equal their own encodings decoded: every
// exported column, dictionaries included, and the start hints.
func TestTransposeMatchesDecodedSegment(t *testing.T) {
	for _, seed := range []uint64{13, 29} {
		for _, seg := range segmentRows(testSamples(t, seed, 5, 2)) {
			blob, _ := EncodeSegment(seg)
			want, err := DecodeSegmentColumns(blob)
			if err != nil {
				t.Fatal(err)
			}
			got := acquire(&encodePool)
			got.transpose(seg)
			if col := differingColumn(got, want); col != "" {
				t.Fatalf("seed %d: a %d-row segment's transpose differs from its decode in %s", seed, len(seg), col)
			}
			got.Release()
		}
	}
}

// differingColumn names the first exported field of two batches that
// differs, taking an empty slice as equal to nil; "" when none does.
func differingColumn(a, b *ColumnBatch) string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		f := va.Type().Field(i)
		x, y := va.Field(i), vb.Field(i)
		if !f.IsExported() || x.Kind() == reflect.Slice && x.Len() == 0 && y.Len() == 0 {
			continue
		}
		if !reflect.DeepEqual(x.Interface(), y.Interface()) {
			return f.Name
		}
	}
	if a.Len() != b.Len() {
		return "the row count"
	}
	return ""
}

var decodedRows int

// BenchmarkDecodeSegment decodes a world's segments (seed 7, 12 groups ×
// 2 days at 40 sessions a group window, one segment a group a day) into
// one reused batch, as a scan's pooled decode does; ns/sample is the
// figure.
func BenchmarkDecodeSegment(b *testing.B) {
	w := world.New(world.Config{Seed: 7, Groups: 12, Days: 2, SessionsPerGroupWindow: 40})
	segs := worldSegments(w.GenerateAll())
	samples := 0
	for _, s := range segs {
		samples += s.rows
	}
	batch := new(ColumnBatch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range segs {
			if err := decodeInto(s.blob, batch); err != nil {
				b.Fatal(err)
			}
			decodedRows += batch.Len()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}

var encodedBytes int

// BenchmarkEncodeSegment encodes the segments BenchmarkDecodeSegment
// decodes, one after another, warm: the encoder's pooled batch is
// reused from segment to segment as a dataset write reuses it;
// ns/sample is the figure.
func BenchmarkEncodeSegment(b *testing.B) {
	w := world.New(world.Config{Seed: 7, Groups: 12, Days: 2, SessionsPerGroupWindow: 40})
	segs := segmentRows(w.GenerateAll())
	samples := 0
	for _, s := range segs {
		samples += len(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range segs {
			blob, _ := EncodeSegment(s)
			encodedBytes += len(blob)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}
