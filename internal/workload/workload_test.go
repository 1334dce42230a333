package workload

import (
	"sort"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sample"
)

// genSessions draws n sessions with the default config.
func genSessions(t *testing.T, n int) []SessionSpec {
	t.Helper()
	g := NewGenerator(rng.New(1), Config{})
	out := make([]SessionSpec, n)
	for i := range out {
		out[i] = g.Session()
	}
	return out
}

func fracBelow(durs []time.Duration, cut time.Duration) float64 {
	n := 0
	for _, d := range durs {
		if d < cut {
			n++
		}
	}
	return float64(n) / float64(len(durs))
}

// TestFig1aShape checks the session-duration anchors from Figure 1a.
func TestFig1aShape(t *testing.T) {
	specs := genSessions(t, 40000)
	var all, h1, h2 []time.Duration
	for _, s := range specs {
		all = append(all, s.Duration)
		if s.Proto == sample.HTTP1 {
			h1 = append(h1, s.Duration)
		} else {
			h2 = append(h2, s.Duration)
		}
	}
	checks := []struct {
		name      string
		durs      []time.Duration
		cut       time.Duration
		want, tol float64
	}{
		{"all <1s", all, time.Second, 0.074, 0.02},
		{"all <1min", all, time.Minute, 0.33, 0.04},
		{"h1 <1min", h1, time.Minute, 0.44, 0.04},
		{"h2 <1min", h2, time.Minute, 0.26, 0.04},
	}
	for _, c := range checks {
		got := fracBelow(c.durs, c.cut)
		if got < c.want-c.tol || got > c.want+c.tol {
			t.Errorf("%s = %.3f, want %.3f ± %.3f", c.name, got, c.want, c.tol)
		}
	}
	// 20% over 3 minutes.
	over := 1 - fracBelow(all, 3*time.Minute)
	if over < 0.16 || over > 0.25 {
		t.Errorf("frac >3min = %.3f, want ~0.20", over)
	}
}

// TestFig3Shape checks the transaction-count anchors from Figure 3.
func TestFig3Shape(t *testing.T) {
	specs := genSessions(t, 40000)
	frac := func(proto sample.Protocol, below int) float64 {
		n, hit := 0, 0
		for _, s := range specs {
			if s.Proto != proto {
				continue
			}
			n++
			if len(s.Txns) < below {
				hit++
			}
		}
		return float64(hit) / float64(n)
	}
	if got := frac(sample.HTTP1, 5); got < 0.84 || got > 0.92 {
		t.Errorf("h1 <5 txns = %.3f, want ~0.87", got)
	}
	if got := frac(sample.HTTP2, 5); got < 0.71 || got > 0.80 {
		t.Errorf("h2 <5 txns = %.3f, want ~0.75", got)
	}
	// Sessions with ≥50 transactions must carry more than half the bytes.
	var bigBytes, totalBytes int64
	for _, s := range specs {
		b := s.TotalBytes()
		totalBytes += b
		if len(s.Txns) >= 50 {
			bigBytes += b
		}
	}
	if share := float64(bigBytes) / float64(totalBytes); share < 0.5 {
		t.Errorf("≥50-txn sessions carry %.3f of bytes, want >0.5", share)
	}
}

// TestFig2Shape checks the size anchors from Figure 2.
func TestFig2Shape(t *testing.T) {
	specs := genSessions(t, 40000)
	var sessionBytes []int64
	var responses, mediaResponses []int64
	for _, s := range specs {
		sessionBytes = append(sessionBytes, s.TotalBytes())
		for _, txn := range s.Txns {
			responses = append(responses, txn.Bytes)
			if s.Media {
				mediaResponses = append(mediaResponses, txn.Bytes)
			}
		}
	}
	fracBelowI := func(xs []int64, cut int64) float64 {
		n := 0
		for _, x := range xs {
			if x < cut {
				n++
			}
		}
		return float64(n) / float64(len(xs))
	}
	median := func(xs []int64) int64 {
		s := append([]int64(nil), xs...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s[len(s)/2]
	}
	// 58% of sessions transfer <10 KB.
	if got := fracBelowI(sessionBytes, 10_000); got < 0.48 || got > 0.68 {
		t.Errorf("sessions <10KB = %.3f, want ~0.58", got)
	}
	// ~6% of sessions transfer >1 MB.
	over1MB := 1 - fracBelowI(sessionBytes, 1_000_000)
	if over1MB < 0.02 || over1MB > 0.12 {
		t.Errorf("sessions >1MB = %.3f, want ~0.06", over1MB)
	}
	// Over 50% of responses are <6 KB.
	if got := fracBelowI(responses, 6_000); got < 0.5 {
		t.Errorf("responses <6KB = %.3f, want >0.5", got)
	}
	// Media responses have a median around 19 KB.
	if m := median(mediaResponses); m < 10_000 || m > 35_000 {
		t.Errorf("media median = %d, want ~19000", m)
	}
	// Half of object fetches are tiny (50% under ~3-6 KB band).
	if m := median(responses); m > 6_000 {
		t.Errorf("overall response median = %d, want <6000", m)
	}
}

func TestTxnPlacement(t *testing.T) {
	g := NewGenerator(rng.New(3), Config{})
	for i := 0; i < 2000; i++ {
		s := g.Session()
		if len(s.Txns) == 0 {
			t.Fatal("session with no transactions")
		}
		if s.Txns[0].At != 0 {
			t.Fatalf("first transaction at %v, want 0", s.Txns[0].At)
		}
		prev := time.Duration(0)
		for _, txn := range s.Txns {
			if txn.At < prev {
				t.Fatal("transactions not time-ordered")
			}
			if txn.At > s.Duration {
				t.Fatalf("transaction at %v beyond session duration %v", txn.At, s.Duration)
			}
			if txn.Bytes <= 0 {
				t.Fatal("non-positive response size")
			}
			prev = txn.At
		}
	}
}

func TestRecordedResponsesTruncates(t *testing.T) {
	g := NewGenerator(rng.New(5), Config{MaxResponsesRecorded: 4})
	spec := SessionSpec{Txns: make([]TxnSpec, 10)}
	for i := range spec.Txns {
		spec.Txns[i].Bytes = int64(i + 1)
	}
	got := g.RecordedResponses(spec)
	if len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Errorf("RecordedResponses = %v", got)
	}
}

func TestDeterministic(t *testing.T) {
	g1 := NewGenerator(rng.New(9), Config{})
	g2 := NewGenerator(rng.New(9), Config{})
	for i := 0; i < 100; i++ {
		a, b := g1.Session(), g2.Session()
		if a.Proto != b.Proto || a.Duration != b.Duration || len(a.Txns) != len(b.Txns) {
			t.Fatal("generator not deterministic")
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	g := NewGenerator(rng.New(1), Config{})
	if g.cfg.H2Share != 0.55 || g.cfg.MediaShare != 0.25 {
		t.Errorf("defaults not applied: %+v", g.cfg)
	}
}

func BenchmarkSessionGeneration(b *testing.B) {
	g := NewGenerator(rng.New(1), Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Session()
	}
}

// TestSessionIntoMatchesSession: specs drawn a chunk at a time into one
// reused transaction arena hold exactly what Session draws from an
// identically seeded generator: no later spec of a chunk writes into an
// earlier one as the arena grows, and nothing of a longer earlier chunk
// survives into a shorter later one.
func TestSessionIntoMatchesSession(t *testing.T) {
	fresh := NewGenerator(rng.New(9), Config{})
	reuse := NewGenerator(rng.New(9), Config{})
	specs := make([]SessionSpec, 64)
	var arena []TxnSpec
	for chunk := 0; chunk < 80; chunk++ {
		arena = arena[:0]
		for i := range specs {
			arena = reuse.SessionInto(&specs[i], arena)
		}
		for i, spec := range specs {
			want := fresh.Session()
			if spec.Proto != want.Proto || spec.Duration != want.Duration || spec.Media != want.Media ||
				len(spec.Txns) != len(want.Txns) || cap(spec.Txns) != len(want.Txns) {
				t.Fatalf("chunk %d session %d: %+v, want %+v", chunk, i, spec, want)
			}
			for j := range want.Txns {
				if spec.Txns[j] != want.Txns[j] {
					t.Fatalf("chunk %d session %d txn %d: %+v, want %+v", chunk, i, j, spec.Txns[j], want.Txns[j])
				}
			}
		}
	}
}
