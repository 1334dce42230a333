package hdratio

import (
	"math"
	"testing"
	"time"

	"repro/internal/units"
)

// FuzzEvaluate drives the methodology with arbitrary observations: it
// must never panic, and its outputs must respect the structural
// invariants (achieved ⊆ tested, HDratio ∈ [0,1], Gtestable ≥ 0).
func FuzzEvaluate(f *testing.F) {
	f.Add(int64(36000), int64(120), int64(15000), int64(60), false)
	f.Add(int64(0), int64(0), int64(0), int64(0), true)
	f.Add(int64(-5), int64(-7), int64(-1), int64(-2), false)
	f.Add(int64(1<<40), int64(1), int64(1<<50), int64(1), false)
	f.Fuzz(func(t *testing.T, bytes, durMs, wnic, rttMs int64, inel bool) {
		sess := Session{
			MinRTT: time.Duration(rttMs) * time.Millisecond,
			Transactions: []Transaction{
				{Bytes: bytes, Duration: time.Duration(durMs) * time.Millisecond, Wnic: wnic, Ineligible: inel},
				{Bytes: bytes / 2, Duration: time.Duration(durMs) * time.Millisecond * 2, Wnic: wnic},
			},
		}
		out := Evaluate(sess, DefaultConfig())
		if out.AchievedCount > out.Tested {
			t.Fatalf("achieved %d > tested %d", out.AchievedCount, out.Tested)
		}
		if hd := out.HDratio(); !math.IsNaN(hd) && (hd < 0 || hd > 1) {
			t.Fatalf("HDratio out of range: %v", hd)
		}
		for _, txn := range out.Transactions {
			if txn.Gtestable < 0 {
				t.Fatalf("negative Gtestable: %v", txn.Gtestable)
			}
		}
	})
}

// FuzzHDRatioClassify classifies whole sessions with arbitrary
// transaction chains through both estimators (§4.1's full model and the
// §4.2 simplification, which Tally counts beside it): neither may panic,
// achieved stays within tested, tested stays within the chain length,
// and the HD ratio is NaN (nothing tested) or in [0,1].
func FuzzHDRatioClassify(f *testing.F) {
	f.Add([]byte{10, 20, 30, 40, 0, 50, 60, 70, 80, 1}, int64(60))
	f.Add([]byte{}, int64(0))
	f.Add([]byte{255, 255, 255, 255, 255}, int64(-10))
	f.Fuzz(func(t *testing.T, raw []byte, rttMs int64) {
		if rttMs < -1000 || rttMs > 1e7 {
			return
		}
		sess := Session{
			MinRTT:       time.Duration(rttMs) * time.Millisecond,
			Transactions: classifyTxns(raw),
		}
		c := Tally(sess, DefaultConfig())
		for _, out := range []Outcome{
			Evaluate(sess, DefaultConfig()),
			{Tested: c.Tested, AchievedCount: c.SimpleAchieved},
		} {
			if out.Tested > len(sess.Transactions) {
				t.Fatalf("tested %d > %d transactions", out.Tested, len(sess.Transactions))
			}
			if out.AchievedCount > out.Tested {
				t.Fatalf("achieved %d > tested %d", out.AchievedCount, out.Tested)
			}
			if hd := out.HDratio(); !math.IsNaN(hd) && (hd < 0 || hd > 1) {
				t.Fatalf("HDratio out of range: %v", hd)
			}
		}
	})
}

// classifyTxns decodes a fuzzed transaction chain, five bytes per
// transaction: sizes, durations and windows spanning the thresholds
// that matter, negative values included.
func classifyTxns(raw []byte) []Transaction {
	var txns []Transaction
	for i := 0; i+4 < len(raw); i += 5 {
		txns = append(txns, Transaction{
			Bytes:      int64(raw[i])<<12 - 1000,
			Duration:   time.Duration(int64(raw[i+1])<<10-5000) * time.Microsecond,
			Wnic:       int64(raw[i+2])<<8 | int64(raw[i+3]),
			Ineligible: raw[i+4]&1 == 1,
		})
	}
	return txns
}

// FuzzTallyMatchesEvaluate is Tally's differential oracle: over any
// chain, MinRTT and target, its Tested and Achieved equal Evaluate's
// counts, and its SimpleAchieved equals a recount of SimpleRate ≥ target
// over the transactions Evaluate marks Testable.
func FuzzTallyMatchesEvaluate(f *testing.F) {
	f.Add([]byte{10, 20, 30, 40, 0, 50, 60, 70, 80, 1}, int64(60), int64(0))
	f.Add([]byte{90, 30, 58, 152, 0, 60, 40, 117, 48, 0, 255, 200, 1, 0, 0}, int64(20), int64(2500))
	f.Add([]byte{255, 255, 255, 255, 255}, int64(-10), int64(-1))
	f.Add([]byte{4, 1, 0, 1, 0, 200, 255, 0, 0, 0}, int64(1), int64(1))
	f.Fuzz(func(t *testing.T, raw []byte, rttMs, targetKbps int64) {
		if rttMs < -1000 || rttMs > 1e7 || targetKbps > 1e9 {
			return
		}
		sess := Session{
			MinRTT:       time.Duration(rttMs) * time.Millisecond,
			Transactions: classifyTxns(raw),
		}
		cfg := Config{Target: units.Rate(targetKbps) * units.Kbps}
		got := Tally(sess, cfg)
		out := Evaluate(sess, cfg)
		if got.Tested != out.Tested || got.Achieved != out.AchievedCount {
			t.Fatalf("Tally tested/achieved %d/%d, Evaluate %d/%d", got.Tested, got.Achieved, out.Tested, out.AchievedCount)
		}
		if cfg.Target <= 0 {
			cfg.Target = units.HDGoodput
		}
		simple := 0
		for i, to := range out.Transactions {
			if to.Testable && SimpleRate(sess.Transactions[i]) >= cfg.Target {
				simple++
			}
		}
		if got.SimpleAchieved != simple {
			t.Fatalf("Tally SimpleAchieved %d, recount %d", got.SimpleAchieved, simple)
		}
	})
}

// idealRoundsLog2 is IdealRounds as it was first written: equation 1
// through math.Log2, then correction loops against sumWindows. It is the
// oracle FuzzIdealRoundsMatchesLog2 holds the integer form to, over the
// domain where it terminates (btotal ≤ MaxInt64/2, where sumWindows
// saturates).
func idealRoundsLog2(btotal, wstart int64) int {
	if btotal <= 0 {
		return 0
	}
	if wstart <= 0 {
		wstart = 1
	}
	m := int(math.Ceil(math.Log2(float64(btotal)/float64(wstart) + 1)))
	if m < 1 {
		m = 1
	}
	// Guard against floating point at the boundary: ensure the window sum
	// over m rounds actually covers btotal, and that m-1 rounds do not.
	for sumWindows(wstart, m) < btotal {
		m++
	}
	for m > 1 && sumWindows(wstart, m-1) >= btotal {
		m--
	}
	return m
}

// FuzzIdealRoundsMatchesLog2: the integer IdealRounds equals the float
// formula for every 0 < btotal ≤ MaxInt64/2 and every wstart.
func FuzzIdealRoundsMatchesLog2(f *testing.F) {
	f.Add(int64(36000), int64(15000))
	f.Add(int64(15001), int64(15000))
	f.Add(int64(45001), int64(15000))
	f.Add(int64(math.MaxInt64/2), int64(1))
	f.Add(int64(math.MaxInt64/2), int64(3))
	f.Add(int64(1), int64(math.MaxInt64))
	f.Add(int64(1<<53+1), int64(1))
	f.Add(int64(100), int64(-7))
	f.Fuzz(func(t *testing.T, btotal, wstart int64) {
		if btotal <= 0 || btotal > math.MaxInt64/2 {
			return
		}
		if got, want := IdealRounds(btotal, wstart), idealRoundsLog2(btotal, wstart); got != want {
			t.Fatalf("IdealRounds(%d, %d) = %d, float formula %d", btotal, wstart, got, want)
		}
	})
}

// FuzzTmodel checks the model time is always nonnegative and at least
// the pure transmission time.
func FuzzTmodel(f *testing.F) {
	f.Add(int64(36000), int64(15000), int64(60), 2.5)
	f.Add(int64(1), int64(1), int64(1), 0.001)
	f.Fuzz(func(t *testing.T, btotal, wnic, rttMs int64, mbps float64) {
		if mbps <= 0 || mbps > 1e5 || math.IsNaN(mbps) {
			return
		}
		if rttMs < 0 || rttMs > 1e6 || btotal > 1<<45 {
			return
		}
		r := units.Rate(mbps * 1e6)
		got := Tmodel(r, btotal, wnic, time.Duration(rttMs)*time.Millisecond)
		if got < 0 {
			t.Fatalf("negative Tmodel: %v", got)
		}
		if btotal > 0 && got < r.TimeFor(btotal)-time.Microsecond {
			t.Fatalf("Tmodel %v below transmission floor %v", got, r.TimeFor(btotal))
		}
	})
}
