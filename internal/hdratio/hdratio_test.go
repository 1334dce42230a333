package hdratio

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
	"repro/internal/units"
)

const (
	mss    = 1500
	iw10   = 10 * mss // initial window of 10 packets, as in Figure 4
	rtt60  = 60 * time.Millisecond
	target = units.HDGoodput
)

func pkts(n int) int64 { return int64(n * mss) }

func TestIdealRounds(t *testing.T) {
	tests := []struct {
		name   string
		btotal int64
		wstart int64
		want   int
	}{
		{"fig4 txn1: 2 pkts, IW10", pkts(2), iw10, 1},
		{"fig4 txn2: 24 pkts, IW10", pkts(24), iw10, 2},
		{"fig4 txn3: 14 pkts, W20", pkts(14), pkts(20), 1},
		{"exactly one window", 15000, 15000, 1},
		{"one byte over window", 15001, 15000, 2},
		{"exactly two rounds", 45000, 15000, 2}, // 15000 + 30000
		{"one byte over two rounds", 45001, 15000, 3},
		{"zero bytes", 0, 15000, 0},
		{"tiny window", 100, 1, 7}, // 1+2+4+...+64=127 ≥ 100; 63 < 100
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IdealRounds(tt.btotal, tt.wstart); got != tt.want {
				t.Errorf("IdealRounds(%d, %d) = %d, want %d", tt.btotal, tt.wstart, got, tt.want)
			}
		})
	}
}

func TestIdealRoundsInvariants(t *testing.T) {
	f := func(b uint32, w uint16) bool {
		btotal := int64(b%1000000) + 1
		wstart := int64(w%5000) + 1
		m := IdealRounds(btotal, wstart)
		if m < 1 {
			return false
		}
		// m rounds must cover btotal; m-1 must not.
		return sumWindows(wstart, m) >= btotal &&
			(m == 1 || sumWindows(wstart, m-1) < btotal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestWSS(t *testing.T) {
	if got := WSS(1, iw10); got != iw10 {
		t.Errorf("WSS(1) = %d, want %d", got, iw10)
	}
	if got := WSS(2, iw10); got != 2*iw10 {
		t.Errorf("WSS(2) = %d, want %d", got, 2*iw10)
	}
	if got := WSS(0, iw10); got != 0 {
		t.Errorf("WSS(0) = %d, want 0", got)
	}
	// Overflow guard.
	if got := WSS(80, 1<<40); got <= 0 {
		t.Errorf("WSS overflow guard failed: %d", got)
	}
}

func TestGtestableFigure4(t *testing.T) {
	// Transaction 1 can test for 0.4 Mbps (2 packets / 60 ms).
	g1 := Gtestable(pkts(2), iw10, rtt60)
	if math.Abs(g1.Mbps()-0.4) > 0.001 {
		t.Errorf("txn1 Gtestable = %v Mbps, want 0.4", g1.Mbps())
	}
	// Transaction 2 can test for 2.8 Mbps via its second round trip
	// (14 packets / 60 ms).
	g2 := Gtestable(pkts(24), iw10, rtt60)
	if math.Abs(g2.Mbps()-2.8) > 0.001 {
		t.Errorf("txn2 Gtestable = %v Mbps, want 2.8", g2.Mbps())
	}
	// Transaction 3, with Wstart grown to 20 packets, transfers its 14
	// packets in one round trip: 2.8 Mbps.
	g3 := Gtestable(pkts(14), pkts(20), rtt60)
	if math.Abs(g3.Mbps()-2.8) > 0.001 {
		t.Errorf("txn3 Gtestable = %v Mbps, want 2.8", g3.Mbps())
	}
}

func TestGtestableUsesPenultimateRound(t *testing.T) {
	// Last round carries fewer bytes than the penultimate: 31 packets
	// with IW10 takes 2 rounds (10+20 covers 30 < 31, so 3 rounds:
	// 10+20+1). Penultimate window = 20 pkts > last round's 1 pkt.
	g := Gtestable(pkts(31), iw10, rtt60)
	want := units.RateOf(pkts(20), rtt60)
	if math.Abs(float64(g-want)) > 1 {
		t.Errorf("Gtestable = %v, want %v (penultimate round)", g, want)
	}
}

func TestGtestableEdgeCases(t *testing.T) {
	if g := Gtestable(0, iw10, rtt60); g != 0 {
		t.Errorf("zero bytes Gtestable = %v", g)
	}
	if g := Gtestable(1000, iw10, 0); g != 0 {
		t.Errorf("zero RTT Gtestable = %v", g)
	}
	if g := Gtestable(1000, 0, rtt60); g <= 0 {
		t.Errorf("zero wstart should still work: %v", g)
	}
}

func TestChainWstartFigure4(t *testing.T) {
	txns := []Transaction{
		{Bytes: pkts(2), Wnic: iw10},
		{Bytes: pkts(24), Wnic: iw10},
		{Bytes: pkts(14), Wnic: pkts(20)},
	}
	ws := ChainWstart(txns)
	want := []int64{iw10, iw10, pkts(20)}
	for i := range want {
		if ws[i] != want[i] {
			t.Errorf("Wstart[%d] = %d, want %d", i, ws[i], want[i])
		}
	}
}

func TestChainWstartIgnoresCollapsedCwnd(t *testing.T) {
	// §3.2.2: if timeouts collapsed the real cwnd to 1 packet before the
	// third transaction, the ideal chain must still credit the growth
	// from transaction 2, keeping transaction 3 testable.
	txns := []Transaction{
		{Bytes: pkts(2), Wnic: iw10},
		{Bytes: pkts(24), Wnic: iw10},
		{Bytes: pkts(14), Wnic: mss}, // collapsed to 1 packet
	}
	ws := ChainWstart(txns)
	if ws[2] != pkts(20) {
		t.Errorf("Wstart[2] = %d, want %d (ideal growth, not collapsed Wnic)", ws[2], pkts(20))
	}
	g := Gtestable(txns[2].Bytes, ws[2], rtt60)
	if g < target {
		t.Errorf("collapsed-cwnd transaction lost testability: %v", g)
	}
}

func TestChainWstartTakesLargerWnic(t *testing.T) {
	// If the measured Wnic exceeds the modelled ideal window, use it
	// (footnote 4: the model is a lower bound).
	txns := []Transaction{
		{Bytes: pkts(2), Wnic: iw10},
		{Bytes: pkts(5), Wnic: pkts(40)},
	}
	ws := ChainWstart(txns)
	if ws[1] != pkts(40) {
		t.Errorf("Wstart[1] = %d, want measured %d", ws[1], pkts(40))
	}
}

func TestTmodelSingleRound(t *testing.T) {
	// Wnic ≥ BDP: Tmodel = Btotal/R + MinRTT.
	// 21000 bytes at 2.5 Mbps = 67.2 ms, plus 60 ms RTT = 127.2 ms.
	got := Tmodel(target, pkts(14), pkts(20), rtt60)
	want := 1272 * time.Millisecond / 10
	if d := got - want; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("Tmodel = %v, want %v", got, want)
	}
}

func TestTmodelWithSlowStartRound(t *testing.T) {
	// Figure 4 txn2 at HD target: BDP(2.5Mbps, 60ms) = 18750 bytes >
	// Wnic 15000, so one slow-start round sends 15000 bytes, then
	// 21000 bytes stream at 2.5 Mbps (67.2 ms), plus the final RTT:
	// 60 + 67.2 + 60 = 187.2 ms.
	got := Tmodel(target, pkts(24), iw10, rtt60)
	want := 187200 * time.Microsecond
	if d := got - want; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("Tmodel = %v, want %v", got, want)
	}
}

func TestTmodelCompletesInSlowStart(t *testing.T) {
	// Transfer finishing during slow start costs whole round trips.
	// 2 packets with IW10 at a tiny-BDP rate... choose rate high enough
	// that BDP > Wnic: B = 25 pkts, Wnic = 10 pkts, R huge.
	r := 100 * units.Mbps // BDP at 60ms = 750000 bytes >> windows
	got := Tmodel(r, pkts(25), iw10, rtt60)
	// Rounds: 10 + 20 ≥ 25 pkts → 2 rounds → 120 ms.
	if got != 2*rtt60 {
		t.Errorf("Tmodel slow-start completion = %v, want %v", got, 2*rtt60)
	}
}

func TestTmodelDegenerate(t *testing.T) {
	if got := Tmodel(target, 0, iw10, rtt60); got != 0 {
		t.Errorf("zero-byte Tmodel = %v", got)
	}
	if got := Tmodel(0, 1000, iw10, rtt60); got < time.Duration(math.MaxInt64)/2 {
		t.Errorf("zero-rate Tmodel should be huge, got %v", got)
	}
}

func TestTmodelLowerBoundedByTransmission(t *testing.T) {
	f := func(b uint32, w uint16, rttMs uint8, rMbpsTenths uint16) bool {
		btotal := int64(b%2000000) + 1
		wnic := int64(w%60000) + 1
		rtt := time.Duration(int(rttMs%200)+1) * time.Millisecond
		r := units.Rate(float64(rMbpsTenths%100+1) / 10 * 1e6)
		return Tmodel(r, btotal, wnic, rtt) >= r.TimeFor(btotal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestTmodelNonIncreasingInRate(t *testing.T) {
	f := func(b uint32, w uint16, rttMs uint8) bool {
		btotal := int64(b%500000) + 1
		wnic := int64(w%40000) + 1
		rtt := time.Duration(int(rttMs%150)+5) * time.Millisecond
		prev := time.Duration(0)
		for i, mbps := range []float64{0.5, 1, 2, 2.5, 3, 5, 10, 50} {
			cur := Tmodel(units.Rate(mbps*1e6), btotal, wnic, rtt)
			if i > 0 && cur > prev+time.Millisecond { // byte-truncation slack
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestFigure4WorkedExample reproduces the paper's worked example end to
// end: three back-to-back transactions over one session with 60 ms RTT
// under ideal conditions.
func TestFigure4WorkedExample(t *testing.T) {
	sess := Session{
		MinRTT: rtt60,
		Transactions: []Transaction{
			// txn1: 2 packets, one round trip → 60 ms, 0.4 Mbps.
			{Bytes: pkts(2), Duration: rtt60, Wnic: iw10},
			// txn2: 24 packets, two round trips → 120 ms, 2.4 Mbps.
			{Bytes: pkts(24), Duration: 2 * rtt60, Wnic: iw10},
			// txn3: 14 packets, one round trip → 60 ms, 2.8 Mbps.
			{Bytes: pkts(14), Duration: rtt60, Wnic: pkts(20)},
		},
	}
	out := Evaluate(sess, DefaultConfig())

	if out.Transactions[0].Testable {
		t.Error("txn1 (Gtestable 0.4 Mbps) must not test for HD goodput")
	}
	if !out.Transactions[1].Testable {
		t.Error("txn2 must test for HD goodput")
	}
	if !out.Transactions[2].Testable {
		t.Error("txn3 must test for HD goodput")
	}
	if !out.Transactions[1].AchievedTarget {
		t.Error("txn2 (120 ms ≤ 187.2 ms model) must achieve HD goodput")
	}
	if !out.Transactions[2].AchievedTarget {
		t.Error("txn3 (60 ms ≤ 127.2 ms model) must achieve HD goodput")
	}
	if out.Tested != 2 || out.AchievedCount != 2 {
		t.Errorf("Tested=%d Achieved=%d, want 2/2", out.Tested, out.AchievedCount)
	}
	if hd := out.HDratio(); hd != 1 {
		t.Errorf("HDratio = %v, want 1", hd)
	}
}

func TestEvaluateDegradedSession(t *testing.T) {
	// Same shape as Figure 4 but the second transaction took far longer
	// than the model allows: it tested for HD and failed.
	sess := Session{
		MinRTT: rtt60,
		Transactions: []Transaction{
			{Bytes: pkts(24), Duration: 400 * time.Millisecond, Wnic: iw10},
			{Bytes: pkts(14), Duration: rtt60, Wnic: pkts(20)},
		},
	}
	out := Evaluate(sess, DefaultConfig())
	if out.Tested != 2 {
		t.Fatalf("Tested = %d, want 2", out.Tested)
	}
	if out.Transactions[0].AchievedTarget {
		t.Error("400 ms transfer must not achieve HD (model allows 187.2 ms)")
	}
	if hd := out.HDratio(); hd != 0.5 {
		t.Errorf("HDratio = %v, want 0.5", hd)
	}
}

func TestHDratioNaNWhenNothingTestable(t *testing.T) {
	sess := Session{
		MinRTT: rtt60,
		Transactions: []Transaction{
			{Bytes: pkts(1), Duration: rtt60, Wnic: iw10},
		},
	}
	out := Evaluate(sess, DefaultConfig())
	if out.Tested != 0 {
		t.Fatalf("Tested = %d, want 0", out.Tested)
	}
	if !math.IsNaN(out.HDratio()) {
		t.Errorf("HDratio = %v, want NaN", out.HDratio())
	}
}

func TestIneligibleTransactionsExcludedButChainAdvances(t *testing.T) {
	sess := Session{
		MinRTT: rtt60,
		Transactions: []Transaction{
			{Bytes: pkts(24), Duration: 2 * rtt60, Wnic: iw10, Ineligible: true},
			{Bytes: pkts(14), Duration: rtt60, Wnic: mss},
		},
	}
	out := Evaluate(sess, DefaultConfig())
	if out.Transactions[0].Testable {
		t.Error("ineligible transaction must not be counted as testable")
	}
	// The chain must still credit txn1's ideal growth so txn2 tests.
	if !out.Transactions[1].Testable {
		t.Error("txn after ineligible one should still be testable via chain")
	}
	if out.Tested != 1 {
		t.Errorf("Tested = %d, want 1", out.Tested)
	}
}

func TestEstimateDeliveryRateKnownScenario(t *testing.T) {
	// Single-round transfer: duration = Btotal/R + MinRTT, solvable in
	// closed form. 21000 bytes, 67.2 ms transmission + 60 ms = 127.2 ms
	// ⇒ R = 2.5 Mbps.
	txn := Transaction{Bytes: pkts(14), Duration: 127200 * time.Microsecond, Wnic: pkts(20)}
	got := EstimateDeliveryRate(txn, rtt60)
	if math.Abs(got.Mbps()-2.5) > 0.01 {
		t.Errorf("EstimateDeliveryRate = %v Mbps, want 2.5", got.Mbps())
	}
}

func TestEstimateDeliveryRateConsistent(t *testing.T) {
	f := func(b uint32, w uint16, durMs uint16) bool {
		txn := Transaction{
			Bytes:    int64(b%300000) + 1000,
			Duration: time.Duration(int(durMs%2000)+61) * time.Millisecond,
			Wnic:     int64(w%40000) + 1000,
		}
		r := EstimateDeliveryRate(txn, rtt60)
		if r <= 0 {
			return true
		}
		if !Achieved(txn, r*0.999, rtt60) {
			return false
		}
		if r < maxEstimableRate/2 && Achieved(txn, r*1.01, rtt60) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEstimateDeliveryRateCaps(t *testing.T) {
	// Duration equal to MinRTT: infinitely fast per the model; capped.
	txn := Transaction{Bytes: pkts(5), Duration: rtt60, Wnic: iw10}
	if got := EstimateDeliveryRate(txn, rtt60); got != maxEstimableRate {
		t.Errorf("instant transfer should cap at max rate, got %v", got)
	}
}

func TestSimpleRateUnderestimates(t *testing.T) {
	// The naive estimate divides by the whole duration including the
	// propagation round trip, so it is always below the model estimate.
	f := func(b uint32, durMs uint16) bool {
		txn := Transaction{
			Bytes:    int64(b%300000) + 1000,
			Duration: time.Duration(int(durMs%1000)+61) * time.Millisecond,
			Wnic:     iw10,
		}
		simple := SimpleRate(txn)
		model := EstimateDeliveryRate(txn, rtt60)
		return simple <= model+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEvaluateSimpleStricter(t *testing.T) {
	// Figure 4 txn2 achieved 2.4 Mbps raw goodput: the naive approach
	// says it failed HD, the corrected methodology says it passed.
	sess := Session{
		MinRTT: rtt60,
		Transactions: []Transaction{
			{Bytes: pkts(24), Duration: 2 * rtt60, Wnic: iw10},
		},
	}
	corrected := Evaluate(sess, DefaultConfig())
	c := Tally(sess, DefaultConfig())
	simple := Outcome{Tested: c.Tested, AchievedCount: c.SimpleAchieved}
	if corrected.HDratio() != 1 {
		t.Errorf("corrected HDratio = %v, want 1", corrected.HDratio())
	}
	if simple.HDratio() != 0 {
		t.Errorf("simple HDratio = %v, want 0 (2.4 < 2.5 Mbps)", simple.HDratio())
	}
}

// TestIdealRoundsHugeResponses: above MaxInt64/2, where sumWindows
// saturates, the float form's m++ correction loop never exited, and
// Gtestable and IdealEndWindow hung with it. Every int64 now returns.
func TestIdealRoundsHugeResponses(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, b := range []int64{math.MaxInt64/2 + 1, math.MaxInt64} {
			if m := IdealRounds(b, 1); m != 63 {
				t.Errorf("IdealRounds(%d, 1) = %d, want 63", b, m)
			}
			if g := Gtestable(b, 1, rtt60); g <= 0 {
				t.Errorf("Gtestable(%d, 1) = %v, want > 0", b, g)
			}
			if w := IdealEndWindow(b, iw10); w <= 0 {
				t.Errorf("IdealEndWindow(%d) = %d, want > 0", b, w)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("IdealRounds/Gtestable/IdealEndWindow did not return within 10s")
	}
}

func TestEvaluateRandomSessionsNoPanic(t *testing.T) {
	r := rng.New(77)
	for i := 0; i < 500; i++ {
		n := r.IntN(20) + 1
		txns := make([]Transaction, n)
		for j := range txns {
			txns[j] = Transaction{
				Bytes:      int64(r.IntN(1000000)),
				Duration:   time.Duration(r.IntN(2000)) * time.Millisecond,
				Wnic:       int64(r.IntN(100000)),
				Ineligible: r.Bool(0.1),
			}
		}
		sess := Session{
			MinRTT:       time.Duration(r.IntN(300)+1) * time.Millisecond,
			Transactions: txns,
		}
		out := Evaluate(sess, DefaultConfig())
		if out.AchievedCount > out.Tested {
			t.Fatalf("achieved %d > tested %d", out.AchievedCount, out.Tested)
		}
		if hd := out.HDratio(); !math.IsNaN(hd) && (hd < 0 || hd > 1) {
			t.Fatalf("HDratio out of range: %v", hd)
		}
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Target != units.HDGoodput || cfg.MSS != units.DefaultMSS {
		t.Errorf("unexpected default config: %+v", cfg)
	}
	// Evaluate fills a zero target.
	sess := Session{MinRTT: rtt60, Transactions: []Transaction{{Bytes: pkts(24), Duration: 2 * rtt60, Wnic: iw10}}}
	out := Evaluate(sess, Config{})
	if out.Tested != 1 {
		t.Error("zero-value config did not default the target")
	}
}

func BenchmarkEvaluateSession(b *testing.B) {
	sess := Session{
		MinRTT: rtt60,
		Transactions: []Transaction{
			{Bytes: pkts(2), Duration: rtt60, Wnic: iw10},
			{Bytes: pkts(24), Duration: 2 * rtt60, Wnic: iw10},
			{Bytes: pkts(14), Duration: rtt60, Wnic: pkts(20)},
			{Bytes: pkts(90), Duration: 5 * rtt60, Wnic: pkts(20)},
		},
	}
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Evaluate(sess, cfg)
	}
}

func BenchmarkEstimateDeliveryRate(b *testing.B) {
	txn := Transaction{Bytes: pkts(90), Duration: 300 * time.Millisecond, Wnic: iw10}
	for i := 0; i < b.N; i++ {
		EstimateDeliveryRate(txn, rtt60)
	}
}
