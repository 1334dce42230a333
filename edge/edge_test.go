package edge_test

import (
	"math"
	"testing"
	"time"

	"repro/edge"
)

// TestPublicAPIQuickstart exercises the documented entry points the way
// the examples do.
func TestPublicAPIQuickstart(t *testing.T) {
	const mss = 1500
	sess := edge.Session{
		MinRTT: 60 * time.Millisecond,
		Transactions: []edge.Transaction{
			{Bytes: 2 * mss, Duration: 60 * time.Millisecond, Wnic: 10 * mss},
			{Bytes: 24 * mss, Duration: 120 * time.Millisecond, Wnic: 10 * mss},
			{Bytes: 14 * mss, Duration: 60 * time.Millisecond, Wnic: 20 * mss},
		},
	}
	out := edge.Evaluate(sess, edge.DefaultConfig())
	if out.Tested != 2 || out.AchievedCount != 2 {
		t.Fatalf("quickstart outcome: %d/%d", out.AchievedCount, out.Tested)
	}
	if hd := out.HDratio(); hd != 1 {
		t.Errorf("HDratio = %v", hd)
	}
	if g := edge.Gtestable(24*mss, 10*mss, 60*time.Millisecond); math.Abs(g.Mbps()-2.8) > 0.01 {
		t.Errorf("Gtestable = %v", g)
	}
	if tm := edge.Tmodel(edge.HDGoodput, 24*mss, 10*mss, 60*time.Millisecond); tm < 180*time.Millisecond || tm > 195*time.Millisecond {
		t.Errorf("Tmodel = %v", tm)
	}
}

func TestPublicAPICorrect(t *testing.T) {
	raw := []edge.RawTransaction{{
		FirstByteWrite: 0, FirstByteNIC: 0,
		LastByteNIC:     10 * time.Millisecond,
		SecondToLastAck: 60 * time.Millisecond,
		LastAck:         100 * time.Millisecond,
		Bytes:           30000, LastPacketBytes: 1500, Wnic: 15000,
	}}
	txns := edge.Correct(raw)
	if len(txns) != 1 || txns[0].Bytes != 28500 {
		t.Fatalf("Correct = %+v", txns)
	}
}

func TestPublicAPIStore(t *testing.T) {
	st := edge.NewStore()
	st.Add(edge.Sample{
		PoP: "ams", Prefix: "10.0.0.0/24", Country: "DE",
		MinRTT: 20 * time.Millisecond, Bytes: 100,
	})
	if st.Len() != 1 {
		t.Errorf("store groups = %d", st.Len())
	}
	key := edge.GroupKey{PoP: "ams", Prefix: "10.0.0.0/24", Country: "DE"}
	if st.Group(key) == nil {
		t.Error("group lookup failed")
	}
}

func TestPublicAPIStudySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("study smoke skipped in -short")
	}
	res := edge.RunStudy(edge.StudyConfig{Seed: 5, Groups: 6, Days: 1, SessionsPerGroupWindow: 3})
	if res.Store.TotalSamples == 0 {
		t.Fatal("study produced no samples")
	}
	if res.Overview.Sessions == 0 {
		t.Fatal("overview saw no sessions")
	}
	// Degradation/opportunity run even if sparse data invalidates most
	// comparisons at this tiny scale.
	_ = edge.Degradation(res.Store, edge.MetricMinRTT)
	_ = edge.Opportunity(res.Store, edge.MetricHDratio)
}

func TestSamplerAPI(t *testing.T) {
	s := edge.Sampler{Rate: 0.5, Salt: 3}
	a, b := 0, 0
	for i := uint64(0); i < 1000; i++ {
		if s.Sample(i) {
			a++
		} else {
			b++
		}
	}
	if a == 0 || b == 0 {
		t.Errorf("sampler degenerate: %d/%d", a, b)
	}
}

// TestPublicAPIGtestableHugeResponses: edge.Gtestable returns for
// response sizes above MaxInt64/2, where the float form of equation 1
// never did.
func TestPublicAPIGtestableHugeResponses(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, b := range []int64{math.MaxInt64/2 + 1, math.MaxInt64} {
			if g := edge.Gtestable(b, 1, 60*time.Millisecond); g <= 0 {
				t.Errorf("Gtestable(%d, 1) = %v, want > 0", b, g)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("edge.Gtestable did not return within 10s")
	}
}
