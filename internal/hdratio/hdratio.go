// Package hdratio implements the paper's core contribution (§3.2): a
// server-side methodology for estimating whether production HTTP
// transactions could *test for* a target goodput and, if so, whether they
// *achieved* it — robust to small responses, cwnd state carried across
// transactions, and transmission time at unknown bottleneck links.
//
// The methodology has three parts:
//
//  1. Gtestable (§3.2.2, equations 1–3): the maximum goodput a
//     transaction could demonstrate under ideal network conditions, given
//     its response size and the congestion window at its start. The cwnd
//     at the start of each transaction is chained across the session
//     assuming ideal growth (Wstart), so poor network conditions cannot
//     mask themselves by shrinking the cwnd.
//
//  2. Tmodel (§3.2.3): the best-case transfer time of a model transaction
//     through a bottleneck of rate R, starting from the *measured* cwnd
//     Wnic, doubling each round trip until the cwnd supports R, then
//     streaming at R, plus one round trip for the final acknowledgment. A
//     real transaction achieved rate R if its measured duration is at
//     most Tmodel(R).
//
//  3. HDratio (§3.2.4): per HTTP session, the fraction of transactions
//     that achieved the target among those that could test for it.
//
// Capture-side rules (delayed-ACK correction, HTTP/2 coalescing,
// bytes-in-flight eligibility, §3.2.5) live in package proxygen; this
// package consumes the corrected per-transaction observations.
package hdratio

import (
	"math"
	"math/bits"
	"time"

	"repro/internal/units"
)

// Config parameterises the methodology.
type Config struct {
	// Target is the goodput being tested for. The paper uses 2.5 Mbps,
	// the minimum bitrate for HD video ("HD goodput").
	Target units.Rate
	// MSS is the maximum segment size in bytes, used only by helpers
	// that convert packet counts.
	MSS int
}

// DefaultConfig is the paper's production configuration.
func DefaultConfig() Config {
	return Config{Target: units.HDGoodput, MSS: units.DefaultMSS}
}

// Transaction is one HTTP transaction as observed by the load balancer,
// after capture-side correction (§3.2.5): Bytes excludes the final
// packet, and Duration runs from the first response byte reaching the
// NIC to the ACK covering the second-to-last packet.
type Transaction struct {
	// Bytes is Btotal: response bytes counted toward goodput.
	Bytes int64
	// Duration is Ttotal: the corrected transfer duration.
	Duration time.Duration
	// Wnic is the congestion window, in bytes, measured when the first
	// response byte was written to the NIC.
	Wnic int64
	// Ineligible marks transactions that cannot be used for goodput
	// measurement because a previous response was still in flight when
	// this one started and the coalescing conditions were not met
	// (§3.2.5 "Bytes in Flight"). Ineligible transactions still advance
	// the ideal cwnd chain.
	Ineligible bool
}

// Session is an HTTP session's goodput-relevant observations. MinRTT is
// the minimum round-trip time reported by the transport at session
// termination (§3.1).
type Session struct {
	MinRTT       time.Duration
	Transactions []Transaction
}

// IdealRounds returns m, the number of round trips required to transfer
// btotal bytes when the congestion window starts at wstart bytes and
// doubles every round trip (equation 1): m = ⌈log2(Btotal/Wstart + 1)⌉.
// That is the least m with Wstart × (2^m − 1) ≥ Btotal, i.e. the least m
// with 2^m > ⌈Btotal/Wstart⌉: the quotient's bit length, exact for every
// int64 without floating point.
func IdealRounds(btotal, wstart int64) int {
	if btotal <= 0 {
		return 0
	}
	if wstart <= 0 {
		wstart = 1
	}
	return bits.Len64(uint64((btotal-1)/wstart + 1))
}

// WSS returns the congestion window, in bytes, at the start of the n-th
// round trip under ideal growth (equation 2): WSS(n) = 2^(n−1) × Wstart.
func WSS(n int, wstart int64) int64 {
	if n < 1 {
		return 0
	}
	if n-1 >= 62 {
		return math.MaxInt64 / 2
	}
	v := wstart << uint(n-1)
	if v < 0 { // overflow
		return math.MaxInt64 / 2
	}
	return v
}

// sumWindows returns the total bytes deliverable in m ideal rounds:
// Σ_{i=1..m} WSS(i) = Wstart × (2^m − 1).
func sumWindows(wstart int64, m int) int64 {
	if m <= 0 {
		return 0
	}
	if m >= 62 {
		return math.MaxInt64 / 2
	}
	v := wstart * ((1 << uint(m)) - 1)
	if v < 0 {
		return math.MaxInt64 / 2
	}
	return v
}

// Gtestable returns the maximum goodput a transaction can test for under
// ideal conditions (equation 3): the larger of the bytes sent in the
// last or penultimate round trip, divided by MinRTT. For single-round
// transactions the whole response transfers in one round trip.
func Gtestable(btotal, wstart int64, minRTT time.Duration) units.Rate {
	if btotal <= 0 || minRTT <= 0 {
		return 0
	}
	if wstart <= 0 {
		wstart = 1
	}
	m := IdealRounds(btotal, wstart)
	if m == 1 {
		return units.RateOf(btotal, minRTT)
	}
	penultimate := WSS(m-1, wstart)
	last := btotal - sumWindows(wstart, m-1)
	best := penultimate
	if last > best {
		best = last
	}
	return units.RateOf(best, minRTT)
}

// IdealEndWindow returns the modelled cwnd at the end of a transaction
// under ideal growth: WSS(m) where m is the transaction's ideal round
// count (§3.2.2, footnote 4). It is a lower bound because growth during
// the final round trip is ignored.
func IdealEndWindow(btotal, wstart int64) int64 {
	if btotal <= 0 {
		return wstart
	}
	return WSS(IdealRounds(btotal, wstart), wstart)
}

// ChainWstart computes the Wstart values for a session's transactions:
// the first transaction uses its measured Wnic; each subsequent
// transaction uses the maximum of its measured Wnic and the ideal cwnd
// at the end of the previous transaction (§3.2.2). This prevents poor
// network conditions (which shrink the real cwnd) from hiding evidence
// of poor performance by making transactions look untestable.
func ChainWstart(txns []Transaction) []int64 {
	out := make([]int64, len(txns))
	var c chain
	for i, txn := range txns {
		out[i] = c.next(txn)
	}
	return out
}

// chain holds the ideal cwnd at the end of the previous transaction.
type chain struct{ idealEnd int64 }

// next returns txn's Wstart and advances the chain past txn.
func (c *chain) next(txn Transaction) int64 {
	w := max(txn.Wnic, c.idealEnd)
	if w <= 0 {
		w = 1
	}
	c.idealEnd = IdealEndWindow(txn.Bytes, w)
	return w
}

// Tmodel returns the best-case transfer time of a model transaction of
// btotal bytes through a bottleneck of rate r (§3.2.3): the model doubles
// its cwnd from wnic each round trip until the cwnd supports rate r,
// streams the remaining bytes at r, and waits one round trip for the
// final acknowledgment. If the transfer completes during slow start the
// time is the slow-start round count times MinRTT.
func Tmodel(r units.Rate, btotal, wnic int64, minRTT time.Duration) time.Duration {
	if btotal <= 0 {
		return 0
	}
	if wnic <= 0 {
		wnic = 1
	}
	if r <= 0 {
		return time.Duration(math.MaxInt64)
	}
	bdp := r.BytesIn(minRTT)
	var sent int64
	cwnd := wnic
	n := 0
	for cwnd < bdp {
		if sent+cwnd >= btotal {
			// Completes within slow start: n full rounds already spent,
			// plus this final round (send + ACK).
			return time.Duration(n+1) * minRTT
		}
		sent += cwnd
		cwnd <<= 1
		if cwnd <= 0 {
			cwnd = math.MaxInt64 / 2
		}
		n++
	}
	remaining := btotal - sent
	if remaining < 0 {
		remaining = 0
	}
	return time.Duration(n)*minRTT + r.TimeFor(remaining) + minRTT
}

// Achieved reports whether a transaction achieved rate r: its measured
// duration is no longer than the best-case model time through a
// bottleneck of rate r.
func Achieved(txn Transaction, r units.Rate, minRTT time.Duration) bool {
	if txn.Bytes <= 0 || txn.Duration <= 0 {
		return false
	}
	return txn.Duration <= Tmodel(r, txn.Bytes, txn.Wnic, minRTT)
}

// maxEstimableRate caps the delivery-rate search: when a transaction
// completes in the minimum possible time the model cannot distinguish
// rates beyond this.
const maxEstimableRate = 100 * units.Gbps

// EstimateDeliveryRate returns the largest rate R such that the
// transaction's duration is at most Tmodel(R) — the methodology's
// estimate of how fast the network delivered the response (§3.2.3). The
// estimate is capped at 100 Gbps.
func EstimateDeliveryRate(txn Transaction, minRTT time.Duration) units.Rate {
	if txn.Bytes <= 0 || txn.Duration <= 0 {
		return 0
	}
	if !Achieved(txn, 1, minRTT) { // cannot even sustain 1 bps
		return 0
	}
	if Achieved(txn, maxEstimableRate, minRTT) {
		return maxEstimableRate
	}
	lo, hi := units.Rate(1), maxEstimableRate
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if Achieved(txn, mid, minRTT) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// SimpleRate is the naive baseline the paper compares against in §4:
// overall transaction goodput Btotal ÷ Ttotal with no correction for
// round trips spent growing the cwnd or for propagation delay. It
// systematically underestimates achieved goodput for small transactions.
func SimpleRate(txn Transaction) units.Rate {
	return units.RateOf(txn.Bytes, txn.Duration)
}

// TxnOutcome describes how one transaction fared against the target.
type TxnOutcome struct {
	// Wstart is the chained ideal starting window used for testability.
	Wstart int64
	// Testable is true when Gtestable ≥ the target (§3.2.2).
	Testable bool
	// AchievedTarget is true when the transaction was testable and its
	// duration beat the model time at the target rate.
	AchievedTarget bool
	// Gtestable is the maximum goodput this transaction could test for.
	Gtestable units.Rate
}

// Outcome summarises a session (§3.2.4).
type Outcome struct {
	// Tested is the number of transactions capable of testing for the
	// target goodput.
	Tested int
	// AchievedCount is how many of those achieved it.
	AchievedCount int
	// Transactions holds the per-transaction detail, aligned with the
	// session's transaction slice.
	Transactions []TxnOutcome
}

// HDratio returns achieved/tested, or NaN when no transaction could test
// for the target (in which case the session says nothing about network
// conditions, §3.2.2).
func (o Outcome) HDratio() float64 {
	if o.Tested == 0 {
		return math.NaN()
	}
	return float64(o.AchievedCount) / float64(o.Tested)
}

// Evaluate runs the full methodology over a session.
func Evaluate(sess Session, cfg Config) Outcome {
	if cfg.Target <= 0 {
		cfg.Target = units.HDGoodput
	}
	out := Outcome{Transactions: make([]TxnOutcome, len(sess.Transactions))}
	var c chain
	for i, txn := range sess.Transactions {
		to := TxnOutcome{Wstart: c.next(txn)}
		to.Gtestable = Gtestable(txn.Bytes, to.Wstart, sess.MinRTT)
		if !txn.Ineligible && to.Gtestable >= cfg.Target {
			to.Testable = true
			out.Tested++
			if Achieved(txn, cfg.Target, sess.MinRTT) {
				to.AchievedTarget = true
				out.AchievedCount++
			}
		}
		out.Transactions[i] = to
	}
	return out
}

// Counts is what a sampled session records of its Outcome. Tested and
// Achieved are Evaluate's Tested and AchievedCount; SimpleAchieved
// counts the tested transactions whose naive SimpleRate reaches the
// target (the §4 ablation: the "median HDratio 0.69" underestimate).
type Counts struct{ Tested, Achieved, SimpleAchieved int }

// Tally is Evaluate reduced to Counts, in one pass that allocates nothing.
func Tally(sess Session, cfg Config) Counts {
	if cfg.Target <= 0 {
		cfg.Target = units.HDGoodput
	}
	var out Counts
	var c chain
	for _, txn := range sess.Transactions {
		w := c.next(txn)
		if txn.Ineligible || Gtestable(txn.Bytes, w, sess.MinRTT) < cfg.Target {
			continue
		}
		out.Tested++
		if Achieved(txn, cfg.Target, sess.MinRTT) {
			out.Achieved++
		}
		if SimpleRate(txn) >= cfg.Target {
			out.SimpleAchieved++
		}
	}
	return out
}
