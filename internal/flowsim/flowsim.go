// Package flowsim is the fast, flow-level transfer model used by the
// world generator: it produces the same per-transaction observations the
// load-balancer instrumentation captures (first-byte-to-NIC →
// second-to-last-ACK duration, cwnd at write time) without simulating
// individual packets.
//
// The model advances a transfer one round trip at a time: each round
// sends up to a congestion window of bytes, costs one propagation RTT
// plus serialization at the bottleneck plus jitter, and may suffer a
// loss event that halves the window and adds a recovery round. The
// congestion window persists across transactions within a session, as
// it does on a real connection — which is exactly the property the
// paper's Wstart chaining accounts for (§3.2.2).
//
// Package validate cross-checks this model against the packet-level
// simulator (tcpsim); the flow-level model trades ~three orders of
// magnitude of speed for small timing error, which is what makes the
// global study (Figures 6–10) runnable at dataset scale.
package flowsim

import (
	"time"

	"repro/internal/hdratio"
	"repro/internal/rng"
	"repro/internal/units"
)

// Path describes network conditions between a PoP and a client for one
// session. Bottleneck should already reflect the narrowest constraint
// (access link, policer, or congested interconnect).
type Path struct {
	// PropRTT is the round-trip propagation delay.
	PropRTT time.Duration
	// Bottleneck is the available bandwidth at the path bottleneck.
	Bottleneck units.Rate
	// LossProb is the per-packet loss probability.
	LossProb float64
	// JitterMean, when positive, adds an exponentially distributed
	// extra delay to each round trip (cross traffic, scheduling).
	JitterMean time.Duration
	// BottleneckSigma, when positive, varies the effective bottleneck
	// rate per transfer (log-normal multiplier): wireless links and
	// cross traffic make available bandwidth fluctuate within a
	// session, which is what produces partial HDratios.
	BottleneckSigma float64
	// PoliceRate and PoliceBurst model a token-bucket traffic policer
	// on the path (§4's "loss and traffic policing" barrier): any round
	// trip whose window exceeds the bucket suffers a policing loss.
	PoliceRate  units.Rate
	PoliceBurst int64
}

// Config tunes the transfer model.
type Config struct {
	// MSS is the segment size (default units.DefaultMSS).
	MSS int
	// InitCwndPackets is the initial window (default 10).
	InitCwndPackets int
	// MaxCwndPackets caps window growth (receive window / buffer limits;
	// default 1024 packets).
	MaxCwndPackets int
}

func (c Config) withDefaults() Config {
	if c.MSS <= 0 {
		c.MSS = units.DefaultMSS
	}
	if c.InitCwndPackets <= 0 {
		c.InitCwndPackets = 10
	}
	if c.MaxCwndPackets <= 0 {
		c.MaxCwndPackets = 1024
	}
	return c
}

// Session is one connection's transfer state. Create with NewSession;
// call Transfer for each transaction in order.
type Session struct {
	cfg  Config
	path Path
	r    *rng.RNG

	cwnd     int64
	ssthresh int64
	minRTT   time.Duration

	// policeTokens carries the token-bucket state across rounds and
	// transfers.
	policeTokens int64
}

// NewSession starts a connection over the given path. It returns the
// state by value, so a caller that keeps it in a local allocates
// nothing.
func NewSession(path Path, cfg Config, r *rng.RNG) Session {
	cfg = cfg.withDefaults()
	s := Session{
		cfg:      cfg,
		path:     path,
		r:        r,
		cwnd:     int64(cfg.InitCwndPackets * cfg.MSS),
		ssthresh: int64(cfg.MaxCwndPackets*cfg.MSS) * 4,
	}
	// The transport's first RTT sample comes from the handshake; MinRTT
	// sits at the propagation floor plus a small queueing residue.
	s.minRTT = path.PropRTT + time.Duration(r.Exponential(float64(time.Millisecond)))
	s.policeTokens = path.PoliceBurst
	return s
}

// MinRTT returns the session's minimum observed RTT (§3.1).
func (s *Session) MinRTT() time.Duration { return s.minRTT }

// Cwnd returns the current congestion window in bytes.
func (s *Session) Cwnd() int64 { return s.cwnd }

// Txn is the observation a transfer produces: the corrected transaction
// record the methodology consumes, plus the raw wall-clock duration used
// for busy-time accounting.
type Txn struct {
	// Observation is the delayed-ACK-corrected record (§3.2.5): Bytes
	// excludes the final packet; Duration ends at the ACK covering the
	// second-to-last packet.
	Observation hdratio.Transaction
	// RawDuration is first byte written to last byte acknowledged.
	RawDuration time.Duration
	// Rounds is the number of round trips the transfer took.
	Rounds int
	// LossEvents counts window reductions during the transfer.
	LossEvents int
}

// idleRestartThreshold approximates the kernel's slow-start-after-idle
// rule (RFC 2861): a connection idle for longer than its RTO restarts
// from the initial window. This is one of the two reasons the measured
// Wnic can be far below the ideal chained Wstart (§3.2.2) — the other
// being loss.
const idleRestartThreshold = time.Second

// TransferAfterIdle is Transfer preceded by an idle gap: gaps longer
// than the restart threshold collapse the congestion window back to the
// initial window, as Linux does by default.
func (s *Session) TransferAfterIdle(bytes int64, idle time.Duration) Txn {
	if idle > idleRestartThreshold {
		iw := int64(s.cfg.InitCwndPackets * s.cfg.MSS)
		if s.cwnd > iw {
			s.cwnd = iw
		}
	}
	// The policer's bucket refills during the idle gap.
	if s.path.PoliceRate > 0 && idle > 0 {
		s.policeTokens += s.path.PoliceRate.BytesIn(idle)
		if s.policeTokens > s.path.PoliceBurst {
			s.policeTokens = s.path.PoliceBurst
		}
	}
	return s.Transfer(bytes)
}

// Transfer sends bytes over the session and returns the observation.
// Transfers are sequential: each begins after the previous finished (the
// world generator coalesces or discards overlapping transactions the
// same way the capture rules do).
func (s *Session) Transfer(bytes int64) Txn {
	mss := int64(s.cfg.MSS)
	out := Txn{Observation: hdratio.Transaction{Bytes: 0, Wnic: s.cwnd}}
	if bytes <= 0 {
		return out
	}
	lastPkt := bytes % mss
	if lastPkt == 0 {
		lastPkt = mss
	}
	corrected := bytes - lastPkt

	bottleneck := s.path.Bottleneck
	if s.path.BottleneckSigma > 0 {
		bottleneck = units.Rate(s.r.LogNormalMedian(float64(bottleneck), s.path.BottleneckSigma))
	}

	maxCwnd := int64(s.cfg.MaxCwndPackets) * mss
	var elapsed time.Duration
	var correctedAt time.Duration // time when byte `corrected` is acked
	var sent int64

	for sent < bytes {
		w := s.cwnd
		if w > bytes-sent {
			w = bytes - sent
		}
		// Policing: the bucket refills at PoliceRate over a round trip.
		// Bytes beyond the available tokens are dropped by the policer
		// and retransmitted, which at the flow level is equivalent to
		// serializing the excess at the policing rate.
		var policedExcess int64
		policeLost := false
		if s.path.PoliceRate > 0 {
			s.policeTokens += s.path.PoliceRate.BytesIn(s.path.PropRTT)
			if s.policeTokens > s.path.PoliceBurst {
				s.policeTokens = s.path.PoliceBurst
			}
			if w > s.policeTokens {
				policedExcess = w - s.policeTokens
				s.policeTokens = 0
				policeLost = true
			} else {
				s.policeTokens -= w
			}
		}

		// Round cost: propagation + serialization of this round's bytes
		// at the bottleneck (policed excess at the policing rate) + jitter.
		unpoliced := w - policedExcess
		round := s.path.PropRTT + bottleneck.TimeFor(unpoliced+units.ByteOverheadFor(unpoliced, s.cfg.MSS))
		if policedExcess > 0 {
			round += s.path.PoliceRate.TimeFor(policedExcess + units.ByteOverheadFor(policedExcess, s.cfg.MSS))
		}
		if s.path.JitterMean > 0 {
			round += time.Duration(s.r.Exponential(float64(s.path.JitterMean)))
		}

		// Loss: each packet in the round drops independently; any loss
		// triggers one window reduction and a recovery round trip.
		pkts := units.Packets(w, s.cfg.MSS)
		lost := policeLost
		if !lost && s.path.LossProb > 0 {
			pLossRound := 1 - pow1m(s.path.LossProb, pkts)
			lost = s.r.Bool(pLossRound)
		}

		prevSent := sent
		sent += w
		out.Rounds++

		if correctedAt == 0 && corrected > prevSent && corrected <= sent {
			// The ACK covering the second-to-last packet arrives at the
			// end of this round, minus the tail serialization of the
			// final packet when both are in the same round.
			frac := float64(corrected-prevSent) / float64(w)
			partial := s.path.PropRTT + time.Duration(float64(bottleneck.TimeFor(w))*frac)
			correctedAt = elapsed + partial
		} else if correctedAt == 0 && corrected <= prevSent {
			correctedAt = elapsed
		}

		elapsed += round

		if lost {
			out.LossEvents++
			s.ssthresh = s.cwnd / 2
			if s.ssthresh < 2*mss {
				s.ssthresh = 2 * mss
			}
			s.cwnd = s.ssthresh
			// Recovery costs an extra round trip before progress resumes.
			elapsed += s.path.PropRTT
			out.Rounds++
			continue
		}
		// Growth (byte counting, cwnd-limited whenever the transfer used
		// the whole window).
		if w == s.cwnd {
			if s.cwnd < s.ssthresh {
				s.cwnd *= 2
			} else {
				s.cwnd += mss
			}
			if s.cwnd > maxCwnd {
				s.cwnd = maxCwnd
			}
		}
	}
	if correctedAt == 0 {
		correctedAt = elapsed
	}

	out.Observation.Bytes = corrected
	out.Observation.Duration = correctedAt
	out.RawDuration = elapsed
	return out
}

// pow1m returns (1-p)^n without math.Pow in the hot path.
func pow1m(p float64, n int) float64 {
	q := 1 - p
	out := 1.0
	for n > 0 {
		if n&1 == 1 {
			out *= q
		}
		q *= q
		n >>= 1
	}
	return out
}
