// Ablation benchmarks for the design choices DESIGN.md calls out: each
// compares the methodology as specified by the paper against a
// plausible simplification, quantifying what the design element buys.
package repro_test

import (
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/analysis"
	"repro/internal/flowsim"
	"repro/internal/hdratio"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/pep"
	"repro/internal/proxygen"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/tcpsim"
	"repro/internal/tdigest"
	"repro/internal/units"
	"repro/internal/validate"
	"repro/internal/world"
)

// BenchmarkAblationWstartChaining quantifies §3.2.2's ideal-Wstart
// chaining: when network conditions collapse the real cwnd, the naive
// approach (testability from the measured Wnic alone) loses testable
// transactions exactly where the evidence of poor performance is
// strongest.
func BenchmarkAblationWstartChaining(b *testing.B) {
	r := rng.New(1)
	// Sessions on a congested path: the first transaction grows the
	// window, timeouts collapse Wnic before later transactions.
	sessions := make([]hdratio.Session, 500)
	for i := range sessions {
		minRTT := time.Duration(r.IntN(80)+20) * time.Millisecond
		txns := []hdratio.Transaction{
			{Bytes: 24 * 1500, Duration: 3 * minRTT, Wnic: 15000},
			{Bytes: 20 * 1500, Duration: 5 * minRTT, Wnic: 1500}, // collapsed
			{Bytes: 18 * 1500, Duration: 4 * minRTT, Wnic: 1500}, // collapsed
		}
		sessions[i] = hdratio.Session{MinRTT: minRTT, Transactions: txns}
	}
	cfg := hdratio.DefaultConfig()

	var chained, naive int
	for i := 0; i < b.N; i++ {
		chained, naive = 0, 0
		for _, sess := range sessions {
			out := hdratio.Evaluate(sess, cfg)
			chained += out.Tested
			for _, txn := range sess.Transactions {
				if hdratio.Gtestable(txn.Bytes, txn.Wnic, sess.MinRTT) >= cfg.Target {
					naive++
				}
			}
		}
	}
	total := float64(len(sessions) * 3)
	b.ReportMetric(float64(chained)/total, "testable-frac-chained")
	b.ReportMetric(float64(naive)/total, "testable-frac-naive-wnic")
}

// ackAblationSessions runs small-response sessions through the packet
// simulator with delayed ACKs enabled and returns the raw captures plus
// the session MinRTTs.
func ackAblationSessions(n int) ([][]proxygen.RawTxn, []time.Duration) {
	raws := make([][]proxygen.RawTxn, n)
	rtts := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		var sim netsim.Sim
		sim.MaxSteps = 1 << 22
		oneWay := time.Duration(10+i%40) * time.Millisecond
		fwd := &netsim.Link{Sim: &sim, Rate: 8 * units.Mbps, Delay: oneWay}
		rev := &netsim.Link{Sim: &sim, Delay: oneWay}
		s := httpsim.NewSession(&sim, tcpsim.Config{DelayedAcks: true}, fwd, rev, sample.HTTP1, oneWay)
		// Odd-packet-count responses maximise delayed-ack exposure.
		s.Schedule([]httpsim.Request{
			{At: 0, ResponseBytes: 23 * 1500},
			{At: 2 * time.Second, ResponseBytes: 31 * 1500},
		})
		sim.Run()
		raws[i] = s.RawTxns()
		rtts[i] = s.Conn().MinRTT()
	}
	return raws, rtts
}

// BenchmarkAblationDelayedAckCorrection quantifies §3.2.5's last-packet
// correction: judging transactions on their full duration (to the final
// ACK, which the receiver may delay 40ms+) misses HD achievements that
// the corrected measurement captures.
func BenchmarkAblationDelayedAckCorrection(b *testing.B) {
	raws, rtts := ackAblationSessions(60)
	cfg := hdratio.DefaultConfig()
	var corrected, uncorrected, tested int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corrected, uncorrected, tested = 0, 0, 0
		for si, sraws := range raws {
			// Corrected per the paper.
			out := hdratio.Evaluate(hdratio.Session{
				MinRTT:       rtts[si],
				Transactions: proxygen.Correct(sraws),
			}, cfg)
			corrected += out.AchievedCount
			tested += out.Tested
			// Uncorrected: full bytes, duration to the last ACK.
			var txns []hdratio.Transaction
			for _, rt := range sraws {
				txns = append(txns, hdratio.Transaction{
					Bytes:    rt.Bytes,
					Duration: rt.LastAck - rt.FirstByteNIC,
					Wnic:     rt.Wnic,
				})
			}
			out = hdratio.Evaluate(hdratio.Session{MinRTT: rtts[si], Transactions: txns}, cfg)
			uncorrected += out.AchievedCount
		}
	}
	b.ReportMetric(float64(corrected)/float64(tested), "achieved-frac-corrected")
	b.ReportMetric(float64(uncorrected)/float64(tested), "achieved-frac-uncorrected")
}

// BenchmarkAblationCoalescing quantifies §3.2.5's multiplexing
// coalescing: without it, interleaved HTTP/2 responses inflate each
// other's transfer durations and HD judgments collapse.
func BenchmarkAblationCoalescing(b *testing.B) {
	// Overlapping H2 responses over a moderate bottleneck.
	type sessCapture struct {
		raws   []proxygen.RawTxn
		minRTT time.Duration
	}
	var captures []sessCapture
	for i := 0; i < 40; i++ {
		var sim netsim.Sim
		sim.MaxSteps = 1 << 22
		oneWay := time.Duration(15+i%30) * time.Millisecond
		fwd := &netsim.Link{Sim: &sim, Rate: 6 * units.Mbps, Delay: oneWay}
		rev := &netsim.Link{Sim: &sim, Delay: oneWay}
		s := httpsim.NewSession(&sim, tcpsim.Config{}, fwd, rev, sample.HTTP2, oneWay)
		s.Schedule([]httpsim.Request{
			{At: 0, ResponseBytes: 60 * 1500},
			{At: 30 * time.Millisecond, ResponseBytes: 60 * 1500},
			{At: 60 * time.Millisecond, ResponseBytes: 60 * 1500},
		})
		sim.Run()
		captures = append(captures, sessCapture{s.RawTxns(), s.Conn().MinRTT()})
	}
	cfg := hdratio.DefaultConfig()
	var withHD, withoutHD float64
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		withHD, withoutHD = 0, 0
		n = 0
		for _, c := range captures {
			out := hdratio.Evaluate(hdratio.Session{MinRTT: c.minRTT, Transactions: proxygen.Correct(c.raws)}, cfg)
			if hd := out.HDratio(); !math.IsNaN(hd) {
				withHD += hd
				n++
			}
			// No coalescing: convert each raw independently.
			var txns []hdratio.Transaction
			for _, rt := range c.raws {
				txns = append(txns, hdratio.Transaction{
					Bytes:    rt.Bytes - rt.LastPacketBytes,
					Duration: rt.SecondToLastAck - rt.FirstByteNIC,
					Wnic:     rt.Wnic,
				})
			}
			out = hdratio.Evaluate(hdratio.Session{MinRTT: c.minRTT, Transactions: txns}, cfg)
			if hd := out.HDratio(); !math.IsNaN(hd) {
				withoutHD += hd
			}
		}
	}
	b.ReportMetric(withHD/float64(n), "mean-hdratio-coalesced")
	b.ReportMetric(withoutHD/float64(n), "mean-hdratio-uncoalesced")
}

// BenchmarkAblationMeanVsMedian quantifies §3.3's percentile
// aggregation: tail RTT values (bufferbloat, timeouts measured in
// seconds) skew a mean but not the median.
func BenchmarkAblationMeanVsMedian(b *testing.B) {
	r := rng.New(7)
	var meanMs, p50Ms float64
	for i := 0; i < b.N; i++ {
		d := tdigest.New(100)
		sum, n := 0.0, 0
		for j := 0; j < 10000; j++ {
			v := r.LogNormalMedian(40, 0.4)
			if r.Bool(0.01) {
				v = r.Uniform(1000, 5000) // §3.3: tail values on the order of seconds
			}
			d.Add(v)
			sum += v
			n++
		}
		meanMs, p50Ms = sum/float64(n), d.Quantile(0.5)
	}
	b.ReportMetric(meanMs, "mean-ms(skewed)")
	b.ReportMetric(p50Ms, "median-ms(robust:~40)")
}

// BenchmarkAblationTDigestVsExact quantifies the streaming-sketch
// tradeoff (§3.4.1 footnote 11): quantile error versus exact sorting.
func BenchmarkAblationTDigestVsExact(b *testing.B) {
	r := rng.New(9)
	n := 100000
	vals := make([]float64, n)
	d := tdigest.New(agg.Compression)
	for i := range vals {
		vals[i] = r.LogNormalMedian(40, 0.6)
		d.Add(vals[i])
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	exactP50 := sorted[n/2]
	b.ResetTimer()
	var approx float64
	for i := 0; i < b.N; i++ {
		approx = d.Quantile(0.5)
	}
	b.ReportMetric(math.Abs(approx-exactP50)/exactP50, "p50-rel-err")
}

// BenchmarkAblationFlowVsPacket quantifies the two-tier simulator
// design: the flow-level model's transfer-duration error against the
// packet-level simulator, and its speed advantage.
func BenchmarkAblationFlowVsPacket(b *testing.B) {
	cfgs := []validate.Config{
		{Bottleneck: 2 * units.Mbps, RTT: 50 * time.Millisecond, InitCwnd: 10, SizePkts: 100},
		{Bottleneck: 5 * units.Mbps, RTT: 20 * time.Millisecond, InitCwnd: 10, SizePkts: 47},
		{Bottleneck: 1 * units.Mbps, RTT: 100 * time.Millisecond, InitCwnd: 10, SizePkts: 200},
	}
	// Packet-level reference durations.
	ref := make([]time.Duration, len(cfgs))
	for i, c := range cfgs {
		res := validate.RunOne(c)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		ref[i] = res.Ttotal
	}
	var relErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relErr = 0
		for ci, c := range cfgs {
			fs := flowsim.NewSession(flowsim.Path{PropRTT: c.RTT, Bottleneck: c.Bottleneck}, flowsim.Config{}, rng.New(1))
			txn := fs.Transfer(int64(c.SizePkts) * 1500)
			relErr += math.Abs(float64(txn.Observation.Duration-ref[ci])) / float64(ref[ci])
		}
		relErr /= float64(len(cfgs))
	}
	b.ReportMetric(relErr, "mean-rel-duration-err-vs-packet")
}

// BenchmarkAblationCongestionControl compares the three congestion
// controllers on a lossy 10 Mbps path — goodput depends on the
// algorithm (§3.2), and BBR's loss-tolerance (the paper's [20]) is the
// reason it sustains goodput where halving-based algorithms collapse.
func BenchmarkAblationCongestionControl(b *testing.B) {
	run := func(cc tcpsim.Algorithm, seed uint64) units.Rate {
		var sim netsim.Sim
		sim.MaxSteps = 1 << 24
		fwd := &netsim.Link{Sim: &sim, Rate: 10 * units.Mbps, Delay: 25 * time.Millisecond,
			LossProb: 0.02, RNG: rng.New(seed)}
		rev := &netsim.Link{Sim: &sim, Delay: 25 * time.Millisecond}
		c := tcpsim.New(&sim, tcpsim.Config{CC: cc}, fwd, rev)
		total := int64(2000 * 1500)
		var done time.Duration
		c.OnAllAcked = func() { done = sim.Now() }
		c.Write(int(total))
		if !sim.Run() || c.Acked() != total {
			b.Fatalf("transfer failed (cc=%v)", cc)
		}
		return units.RateOf(total, done)
	}
	var reno, cubic, bbr units.Rate
	for i := 0; i < b.N; i++ {
		reno, cubic, bbr = 0, 0, 0
		for s := uint64(0); s < 3; s++ {
			reno += run(tcpsim.Reno, 40+s) / 3
			cubic += run(tcpsim.Cubic, 40+s) / 3
			bbr += run(tcpsim.BBR, 40+s) / 3
		}
	}
	b.ReportMetric(reno.Mbps(), "reno-mbps-at-2pct-loss")
	b.ReportMetric(cubic.Mbps(), "cubic-mbps-at-2pct-loss")
	b.ReportMetric(bbr.Mbps(), "bbr-mbps-at-2pct-loss")
}

// BenchmarkAblationDeaggregation reproduces §3.3's granularity
// experiment: deaggregating prefixes into subnets costs coverage while
// barely reducing variability, which is why the paper aggregates at the
// BGP prefix.
func BenchmarkAblationDeaggregation(b *testing.B) {
	w := world.New(world.Config{Seed: 17, Groups: 10, Days: 1, SessionsPerGroupWindow: 260})
	var res analysis.DeaggregationResult
	for i := 0; i < b.N; i++ {
		base := agg.NewStore()
		fine := agg.NewStore()
		fineSink := analysis.DeaggregateSink(fine)
		for _, s := range w.GenerateAll() {
			if s.HostingProvider {
				continue
			}
			base.Add(s)
			fineSink(s)
		}
		res = analysis.CompareDeaggregation(base, fine)
	}
	b.ReportMetric(res.CoverageLoss(), "coverage-loss(paper:large)")
	b.ReportMetric(res.VariabilityReduction(), "variability-reduction(paper:minimal)")
}

// BenchmarkAblationPEP quantifies the §2.2.1 caveat: with a split-TCP
// proxy on path, the server-side MinRTT reflects only the server↔PEP
// segment.
func BenchmarkAblationPEP(b *testing.B) {
	var serverRTT, e2e time.Duration
	for i := 0; i < b.N; i++ {
		var sim netsim.Sim
		sim.MaxSteps = 1 << 24
		up := pep.SegmentConfig{Rate: 100 * units.Mbps, OneWay: 5 * time.Millisecond}
		down := pep.SegmentConfig{Rate: 2 * units.Mbps, OneWay: 250 * time.Millisecond}
		split := pep.NewSplit(&sim, up, down)
		split.ServeObject(100 * 1500)
		sim.Run()
		serverRTT = split.Upstream.MinRTT()
		e2e = pep.EndToEndRTT(up, down)
	}
	b.ReportMetric(float64(serverRTT)/1e6, "server-minrtt-ms")
	b.ReportMetric(float64(e2e)/1e6, "true-e2e-rtt-ms")
}
