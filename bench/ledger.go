package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/study"
	"repro/internal/tdigest"
	"repro/internal/trace"
)

// ledger is the traced run: the workload's corpus flows through every
// layer of the stack — generate, filter, encode, commit, ship, merge,
// scan, aggregate, analyse, render, serve — with each of the four
// operations taken apart and a span around every call into a layer.
// Per-layer figures are span self times divided by the counts recorded
// at the same boundary. The workload named on the command line decides
// the corpus, and it is its operation whose traced and untraced times
// give bench.trace_overhead_share; the other three operations run over
// the same corpus so that every layer has a figure in every ledger.
type ledger struct {
	own string
	fx  *fixture
	rec *recorder
	v   values
	ops int // operations run, each checked; a failed check ends the run
}

func (l *ledger) nextOp() int { l.ops++; return l.ops - 1 }

// reps is how often a stage repeats each thing it times: once more for
// the workload being traced, whose overhead figure rests on it.
func (l *ledger) reps(stage string) int {
	if stage == l.own {
		return 3
	}
	return 2
}

// overhead records the tracing overhead if stage is the workload
// being traced: how much longer its operation took taken apart and
// recorded than whole, fastest against fastest — an overhead is what
// the traced operation cannot avoid paying, and the fastest of a few
// interleaved repeats is the one the machine disturbed least.
func (l *ledger) overhead(stage string, traced, plain []float64) {
	if stage == l.own {
		l.v.set("bench.trace_overhead_share", (slices.Min(traced)-slices.Min(plain))/slices.Min(plain))
	}
}

// counted runs f with the recorder reading allocator counters at every
// span boundary, and returns the operation id its spans carry.
func (l *ledger) counted(f func(op int) error) (int, error) {
	op := l.nextOp()
	l.rec.mu.Lock()
	l.rec.allocs = true
	l.rec.mu.Unlock()
	err := f(op)
	l.rec.mu.Lock()
	l.rec.allocs = false
	l.rec.mu.Unlock()
	return op, err
}

func runTraced(w *workload, seed uint64, workdir, spansPath string) (*result, error) {
	// The traced run needs every reference at once: the dataset, the
	// row-oracle report (also the daemon's, less its wall-clock line)
	// and the PoP shares.
	fx, err := buildFixture(w.config(seed), filepath.Join(workdir, "fixture"), 1, func(fx *fixture) (err error) {
		if fx.report, err = oracleReport(fx.c.dir); err != nil {
			return err
		}
		fx.pops, err = buildPops(fx.c.cfg, fx.dir)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s traced set-up: %w", w.name, err)
	}
	l := &ledger{own: w.name, fx: fx, rec: newRecorder(), v: values{}}
	for _, stage := range []func() error{l.generateStage, l.batchStage, l.fleetStage, l.liveStage, l.digestProbes} {
		if err := stage(); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	l.v.set("process.peak_rss_mb", rss)

	if err := checkSpans(l.rec.spans); err != nil {
		return nil, fmt.Errorf("span recorder: %w", err)
	}
	if spansPath != "" {
		if err := l.rec.writeFile(spansPath); err != nil {
			return nil, err
		}
	}
	cond := baseConditions(w, seed, "traced", fx.c)
	cond.Ops = l.ops
	return finish(cond, perLayer, l.v, l.ops, 0)
}

func (l *ledger) generateStage() error {
	const stage = "generate_write"
	c, out := l.fx.c, filepath.Join(l.fx.dir, "gen-out")
	verify := func(err error) error {
		if err == nil {
			err = sameDataset(out, c.dir)
		}
		if rerr := os.RemoveAll(out); err == nil {
			err = rerr
		}
		return err
	}
	whole := func(workers int) (float64, error) {
		l.nextOp()
		t0 := time.Now()
		_, err := writeDataset(c.cfg, out, workers, nil)
		ns := float64(time.Since(t0))
		return ns, verify(err)
	}

	var plain, sharded, traced, worldNs, encodeNs, commitNs, commits []float64
	var n genCounts
	for i := 0; i < l.reps(stage); i++ {
		ns, err := whole(1)
		if err != nil {
			return fmt.Errorf("%s: %w", stage, err)
		}
		plain = append(plain, ns)

		op := l.nextOp()
		t0 := time.Now()
		n, err = generateOpDecomposed(l.rec, op, c.cfg, out)
		traced = append(traced, float64(time.Since(t0)))
		if err := verify(err); err != nil {
			return fmt.Errorf("%s taken apart: %w", stage, err)
		}
		tot := l.rec.totals(op)
		worldNs = append(worldNs, float64(tot["world.generate"].selfNs))
		encodeNs = append(encodeNs, float64(tot["segstore.encode"].durNs))
		commitNs = append(commitNs, float64(tot["segstore.commit"].durNs))
		commits = append(commits, tot["segstore.commit"].durs...)

		if ns, err = whole(nproc); err != nil {
			return fmt.Errorf("%s at workers %d: %w", stage, nproc, err)
		}
		sharded = append(sharded, ns)
	}
	op, err := l.counted(func(op int) error {
		_, err := generateOpDecomposed(l.rec, op, c.cfg, out)
		return verify(err)
	})
	if err != nil {
		return fmt.Errorf("%s counting allocations: %w", stage, err)
	}
	counted := l.rec.totals(op)

	run := median(plain)
	l.v.set("world.generate_ns_per_sample", median(worldNs)/float64(n.raw))
	l.v.set("seggen.run_ns_per_sample", run/float64(n.raw))
	l.v.set("seggen.self_share", (run-median(worldNs)-median(encodeNs)-median(commitNs))/run)
	l.v.set("seggen.sharded_speedup", run/median(sharded))
	l.v.set("collector.filtered_share", float64(n.raw-n.kept)/float64(n.raw))
	l.v.set("segstore.encode_ns_per_sample", median(encodeNs)/float64(n.kept))
	l.v.set("segstore.encode_allocs_per_sample", float64(counted["segstore.encode"].mallocs)/float64(n.kept))
	l.v.set("segstore.bytes_per_sample", float64(n.bytes)/float64(n.kept))
	l.v.set("segstore.commit_ms_p50", median(commits)/1e6)
	l.v.set("segstore.commits", float64(counted["segstore.commit"].n))
	l.overhead(stage, traced, plain)
	return nil
}

func (l *ledger) batchStage() error {
	const stage = "batch_replay"
	c := l.fx.c
	samples := float64(c.stored)
	var plain, traced []float64
	self := map[string][]float64{}
	var reportBytes int
	for i := 0; i < l.reps(stage); i++ {
		l.nextOp()
		t0 := time.Now()
		rep, err := batchOp(c.dir)
		plain = append(plain, float64(time.Since(t0)))
		if err == nil {
			err = checkReport(rep, l.fx.report)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", stage, err)
		}

		op := l.nextOp()
		t0 = time.Now()
		rep, err = batchOpDecomposed(l.rec, op, c.dir)
		traced = append(traced, float64(time.Since(t0)))
		if err == nil {
			err = checkReport(rep, l.fx.report)
		}
		if err != nil {
			return fmt.Errorf("%s taken apart: %w", stage, err)
		}
		reportBytes = len(rep)
		for name, t := range l.rec.totals(op) {
			self[name] = append(self[name], float64(t.selfNs))
		}
	}
	op, err := l.counted(func(op int) error {
		_, err := batchOpDecomposed(l.rec, op, c.dir)
		return err
	})
	if err != nil {
		return fmt.Errorf("%s counting allocations: %w", stage, err)
	}
	counted := l.rec.totals(op)

	perSample := func(names ...string) float64 {
		t := 0.0
		for _, n := range names {
			t += median(self[n])
		}
		return t / samples
	}
	ms := func(name string) float64 { return median(self[name]) / 1e6 }
	l.v.set("segstore.scan_ns_per_sample", perSample("segstore.open", "segstore.scan"))
	l.v.set("segstore.scan_allocs_per_sample", float64(counted["segstore.scan"].mallocs)/samples)
	l.v.set("collector.offer_columns_ns_per_sample", perSample("collector.offer"))
	l.v.set("agg.add_batch_ns_per_sample", perSample("agg.add_batch"))
	l.v.set("agg.add_batch_allocs_per_sample", float64(counted["agg.add_batch"].mallocs)/samples)
	l.v.set("analysis.overview_ns_per_sample", perSample("analysis.overview"))
	l.v.set("analysis.overview_allocs_per_sample", float64(counted["analysis.overview"].mallocs)/samples)
	l.v.set("analysis.degradation_ms", ms("analysis.degradation"))
	l.v.set("analysis.opportunity_ms", ms("analysis.opportunity"))
	l.v.set("analysis.classify_ms", ms("analysis.classify"))
	l.v.set("analysis.relationships_ms", ms("analysis.relationships"))
	l.v.set("study.render_ms", ms("study.render"))
	l.v.set("study.report_bytes", float64(reportBytes))
	l.v.set("study.unattributed_share", median(self["bench.batch_replay"])/median(traced))
	l.overhead(stage, traced, plain)

	// The study as a whole, and what its options cost.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.nextOp()
	if _, err := batchOp(c.dir); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	l.v.set("study.allocs_per_sample", float64(after.Mallocs-before.Mallocs)/samples)
	l.v.set("study.alloc_bytes_per_sample", float64(after.TotalAlloc-before.TotalAlloc)/samples)

	// Variants are interleaved so that drift in the machine falls on all
	// of them, and compared on their fastest pass: an overhead is what a
	// variant cannot avoid paying.
	variants := []study.Options{
		{Workers: 1},
		{Workers: 1, Reg: obs.NewRegistry()},
		{Workers: nproc},
		{Workers: nproc, Trace: trace.New(c.cfg.Seed)},
	}
	fastest := make([]float64, len(variants))
	var seq []float64
	for i := 0; i < 2; i++ {
		for j, opt := range variants {
			l.nextOp()
			ns, err := studyPass(c.dir, opt)
			if err != nil {
				return err
			}
			if i == 0 || ns < fastest[j] {
				fastest[j] = ns
			}
			if j == 0 {
				seq = append(seq, ns)
			}
		}
	}
	l.v.set("study.from_segments_ms", median(seq)/1e6)
	l.v.set("study.sharded_speedup", fastest[0]/fastest[2])
	l.v.set("study.obs_overhead_share", (fastest[1]-fastest[0])/fastest[0])
	l.v.set("study.trace_overhead_share", (fastest[3]-fastest[2])/fastest[2])

	// The read layers alone.
	ns, err := decodeProbe(c.dir)
	if err != nil {
		return err
	}
	l.v.set("segstore.decode_ns_per_sample", ns)
	var scan1, scanN []float64
	for i := 0; i < 2; i++ {
		a, err := scanPass(c.dir, 1)
		if err != nil {
			return err
		}
		b, err := scanPass(c.dir, nproc)
		if err != nil {
			return err
		}
		scan1, scanN = append(scan1, a), append(scanN, b)
	}
	l.v.set("segstore.scan_sharded_speedup", median(scan1)/median(scanN))
	mergeNs, sealNs, err := mergeSealProbe(c.dir)
	if err != nil {
		return err
	}
	l.v.set("agg.merge_ms", mergeNs/1e6)
	l.v.set("agg.seal_ms", sealNs/1e6)
	return nil
}

func (l *ledger) fleetStage() error {
	const stage = "fleet_ship"
	c := l.fx.c
	spool, sock := filepath.Join(l.fx.dir, "spool"), filepath.Join(l.fx.dir, "m.sock")
	ship := func(rec *recorder, ackBatch int) (float64, fleetRun, int, error) {
		op := l.nextOp()
		t0 := time.Now()
		run, err := fleetOp(rec, op, l.fx.pops, spool, sock, ackBatch)
		ns := float64(time.Since(t0))
		if err == nil {
			err = checkFleet(run, spool, c)
		}
		if rerr := resetFleet(l.fx.pops, spool); err == nil {
			err = rerr
		}
		return ns, run, op, err
	}

	var plain, traced, batched, slotNs []float64
	var last fleetRun
	for i := 0; i < l.reps(stage); i++ {
		ns, _, _, err := ship(nil, 1)
		if err != nil {
			return fmt.Errorf("%s: %w", stage, err)
		}
		plain = append(plain, ns)

		ns, run, op, err := ship(l.rec, 1)
		if err != nil {
			return fmt.Errorf("%s traced: %w", stage, err)
		}
		traced, last = append(traced, ns), run
		slotNs = append(slotNs, l.rec.totals(op)["ship.slot"].durs...)

		if ns, _, _, err = ship(nil, 8); err != nil {
			return fmt.Errorf("%s with ack batch 8: %w", stage, err)
		}
		batched = append(batched, ns)
	}
	frameNs, err := frameProbe(c.dir)
	if err != nil {
		return err
	}
	l.v.set("ship.slots_per_s", float64(last.slots())/(median(plain)/1e9))
	l.v.set("ship.slot_ms_p50", median(slotNs)/1e6)
	l.v.set("ship.bytes_per_slot", float64(last.ship[0].Bytes+last.ship[1].Bytes)/float64(last.slots()))
	l.v.set("ship.frame_ns_per_slot", frameNs)
	l.v.set("ship.retries", float64(last.ship[0].Retries+last.ship[1].Retries))
	l.v.set("ship.reconnects", float64(last.ship[0].Reconnects+last.ship[1].Reconnects))
	l.v.set("ship.merger_dedup", float64(last.merge.Dedup))
	l.v.set("ship.ack_batch8_speedup", median(plain)/median(batched))
	l.overhead(stage, traced, plain)
	return nil
}

// overheadDays is the length of the short rounds live_serve's tracing
// overhead is measured on; a whole round costs too much to repeat.
const overheadDays = 8

func (l *ledger) liveStage() error {
	const stage = "live_serve"
	c := l.fx.c
	spool := filepath.Join(l.fx.dir, "live-spool")
	defer os.RemoveAll(spool)

	op := l.nextOp()
	r, d := liveServe(l.rec, nil, op, c, stripElapsed(l.fx.report), spool, 0)
	if r.err != nil || r.failed > 0 {
		return fmt.Errorf("%s traced: %d failed operations: %w", stage, r.failed, r.err)
	}
	tot := l.rec.totals(op)
	probes, err := probeDaemon(d, c, 3)
	if err != nil {
		return fmt.Errorf("%s probes: %w", stage, err)
	}

	l.v.set("world.live_feed_ns_per_sample", float64(tot["world.live_feed"].selfNs)/float64(r.samples))
	l.v.set("studyd.ingest_ns_per_sample", float64(tot["studyd.ingest"].durNs)/float64(r.samples))
	l.v.set("studyd.seal_commit_ms_p50", median(r.commitNs)/1e6)
	l.v.set("studyd.seal_noop_ns", median(tot["studyd.seal_noop"].durs))
	l.v.set("studyd.cold_ms_p50", median(probes.coldNs)/1e6)
	l.v.set("studyd.hit_ns_p50", median(r.hitNs))
	l.v.set("studyd.hit_allocs", probes.hitAllocs)
	l.v.set("studyd.stale_ns_p50", median(r.staleNs))
	l.v.set("studyd.revalidate_us_per_ksample", median(r.freshPerK))
	l.v.set("studyd.cache_hits", float64(r.hits))
	l.v.set("studyd.cache_stales", float64(r.stales))
	l.v.set("studyd.cache_misses", float64(r.misses))
	l.v.set("studyd.groups_ms", probes.groupsNs/1e6)
	l.v.set("studyd.windows_us", probes.windowsNs/1e3)
	l.v.set("studyd.seal_to_fresh_p50_ms", median(r.freshNs)/1e6)
	l.v.set("studyd.seal_to_fresh_p75_ms", quantile(r.freshNs, 0.75)/1e6)
	l.v.set("studyd.report_hit_p50_us", median(r.hitNs)/1e3)
	l.v.set("studyd.report_hit_p99_us", quantile(r.hitNs, 0.99)/1e3)
	l.v.set("studyd.report_stale_p50_us", median(r.staleNs)/1e3)
	l.v.set("studyd.report_stale_p75_us", quantile(r.staleNs, 0.75)/1e3)

	if stage != l.own {
		return nil
	}
	var plain, traced []float64
	for i := 0; i < l.reps(stage); i++ {
		for _, rec := range []*recorder{nil, l.rec} {
			r, err := liveStep(rec, nil, l.nextOp(), l.fx, overheadDays)
			if err != nil {
				return fmt.Errorf("%s short round: %w", stage, err)
			}
			if rec == nil {
				plain = append(plain, sum(r.opNs))
			} else {
				traced = append(traced, sum(r.opNs))
			}
		}
	}
	l.overhead(stage, traced, plain)
	return nil
}

// digestProbes times the t-digest alone on values drawn from the
// seed, at the compression the aggregation uses.
func (l *ledger) digestProbes() error {
	const n = 1 << 18
	x := l.fx.c.cfg.Seed | 1
	next := func() float64 { // xorshift64: inputs come from the seed
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53) * 200
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = next()
	}

	d := tdigest.New(tdigest.DefaultCompression)
	t0 := time.Now()
	for _, x := range xs {
		d.Add(x)
	}
	d.Compact()
	l.v.set("tdigest.add_ns", float64(time.Since(t0))/n)

	const reads = 1 << 14
	sink := 0.0
	t0 = time.Now()
	for i := 0; i < reads; i++ {
		sink += d.Quantile(float64(i%99+1) / 100)
	}
	l.v.set("tdigest.quantile_ns", float64(time.Since(t0))/reads)
	if sink <= 0 {
		return fmt.Errorf("t-digest quantiles of positive values summed to %v", sink)
	}

	// Merging window-sized digests, the fold partial aggregates need.
	const parts, per = 256, 512
	small := make([]*tdigest.TDigest, parts)
	for i := range small {
		small[i] = tdigest.New(tdigest.DefaultCompression)
		small[i].AddAll(xs[i*per : (i+1)*per])
		small[i].Compact()
	}
	into := tdigest.New(tdigest.DefaultCompression)
	t0 = time.Now()
	for _, s := range small {
		into.Merge(s)
	}
	into.Compact()
	l.v.set("tdigest.merge_us", float64(time.Since(t0))/1e3/parts)
	if into.Count() != parts*per {
		return fmt.Errorf("merged digest holds %v values, want %d", into.Count(), parts*per)
	}
	return nil
}
