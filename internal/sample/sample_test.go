package sample

import (
	"bytes"
	"cmp"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/geo"
	"repro/internal/rng"
)

func TestHDratio(t *testing.T) {
	s := Sample{HDTested: 4, HDAchieved: 3}
	hd, ok := s.HDratio()
	if !ok || hd != 0.75 {
		t.Errorf("HDratio = %v, %v", hd, ok)
	}
	if _, ok := (Sample{}).HDratio(); ok {
		t.Error("HDratio defined with zero tested")
	}
}

func TestSimpleHDratio(t *testing.T) {
	s := Sample{HDTested: 4, SimpleAchieved: 1}
	hd, ok := s.SimpleHDratio()
	if !ok || hd != 0.25 {
		t.Errorf("SimpleHDratio = %v, %v", hd, ok)
	}
}

func TestGroupKey(t *testing.T) {
	s := Sample{PoP: "ams", Prefix: "10.0.0.0/16", Country: "DE"}
	k := s.Key()
	if k != (GroupKey{"ams", "10.0.0.0/16", "DE"}) {
		t.Errorf("Key = %+v", k)
	}
	if k.String() != "ams/10.0.0.0/16/DE" {
		t.Errorf("String = %s", k.String())
	}
	// Keys must be usable as map keys and distinguish fields.
	m := map[GroupKey]int{k: 1}
	other := GroupKey{"fra", "10.0.0.0/16", "DE"}
	if m[other] != 0 {
		t.Error("different PoPs collided")
	}
}

// Compare is String()'s order, which the tuple order is not. Keys are
// drawn over '-' and '.' (below '/'), '/' and '0', each part extending a
// prefix of an earlier key's, and every pair must compare as its strings
// do — including pairs the tuple order puts the other way round.
func TestGroupKeyCompareIsStringOrder(t *testing.T) {
	r := rng.New(25).Child("groupkey")
	part := func(base string) string {
		s := base[:r.IntN(len(base)+1)]
		for n := r.IntN(3); n > 0; n-- {
			s += string("-./0"[r.IntN(4)])
		}
		return s
	}
	keys := []GroupKey{{}}
	for len(keys) < 300 {
		base := keys[r.IntN(len(keys))]
		keys = append(keys, GroupKey{part(base.PoP), part(base.Prefix), part(base.Country)})
	}
	tupleDisagrees := 0
	for _, a := range keys {
		for _, b := range keys {
			want := strings.Compare(a.String(), b.String())
			if got := a.Compare(b); got != want {
				t.Fatalf("%q.Compare(%q) = %d, strings.Compare of their String()s = %d", a, b, got, want)
			}
			if cmp.Or(strings.Compare(a.PoP, b.PoP), strings.Compare(a.Prefix, b.Prefix), strings.Compare(a.Country, b.Country)) != want {
				tupleDisagrees++
			}
		}
	}
	if tupleDisagrees == 0 {
		t.Fatal("tuple order agreed with String() on every pair: the keys no longer tell them apart")
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	in := []Sample{
		{
			SessionID: 1, PoP: "ams", Prefix: "192.0.2.0/24", ClientAS: 64500,
			Country: "DE", Continent: geo.Europe, Proto: HTTP2,
			RouteID: "r1", RouteRel: bgp.PrivatePeer, ASPathLen: 1,
			Start: 5 * time.Minute, Duration: 42 * time.Second, BusyFraction: 0.07,
			Bytes: 123456, Transactions: 9, ResponseBytes: []int64{3000, 120456},
			MinRTT: 23 * time.Millisecond, HDTested: 3, HDAchieved: 2,
		},
		{SessionID: 2, PoP: "gru", Proto: HTTP1, AltIndex: 2, Prepended: true, HostingProvider: true},
	}
	for _, s := range in {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 2 {
		t.Errorf("Count = %d", w.Count())
	}
	out, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("read %d samples", len(out))
	}
	if out[0].MinRTT != in[0].MinRTT || out[0].Continent != geo.Europe || out[0].ResponseBytes[1] != 120456 {
		t.Errorf("sample 0 mismatch: %+v", out[0])
	}
	if !out[1].HostingProvider || out[1].AltIndex != 2 || !out[1].Prepended {
		t.Errorf("sample 1 mismatch: %+v", out[1])
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("empty read err = %v, want EOF", err)
	}
}

// A dataset is one record per non-empty line: what is not is rejected
// with the line's number, and CRLF endings and blank lines are neither
// records nor errors.
func TestReaderBadInput(t *testing.T) {
	const rec = `{"id":7,"pop":"fra"}`
	for _, tc := range []struct {
		name, data, want string
	}{
		{"malformed first line", "{not json\n", "line 1: "},
		{"malformed third line", rec + "\n\n{bad\n" + rec + "\n", "line 3: "},
		{"two records on one line", rec + " " + rec + "\n", "line 1: invalid character '{' after top-level value"},
	} {
		if _, err := NewReader(strings.NewReader(tc.data)).ReadAll(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
	out, err := NewReader(strings.NewReader("\r\n" + rec + "\r\n\n" + rec)).ReadAll()
	if err != nil || len(out) != 2 || out[1].SessionID != 7 || out[1].PoP != "fra" {
		t.Errorf("CRLF and blank lines: got %d samples, err %v", len(out), err)
	}
}

func TestHDratioRange(t *testing.T) {
	for tested := 0; tested <= 5; tested++ {
		for ach := 0; ach <= tested; ach++ {
			s := Sample{HDTested: tested, HDAchieved: ach}
			hd, ok := s.HDratio()
			if tested == 0 {
				if ok {
					t.Error("defined with 0 tested")
				}
				continue
			}
			if !ok || hd < 0 || hd > 1 || math.IsNaN(hd) {
				t.Errorf("HDratio(%d/%d) = %v", ach, tested, hd)
			}
		}
	}
}
