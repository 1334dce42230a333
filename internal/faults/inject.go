package faults

import (
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// Injector turns a Plan into per-identity fault decisions. Every
// decision derives a fresh child stream via rng.ChildAt from (mixed
// seed, surface label, identity), consuming no shared generator state —
// so decisions are pure functions, independent of call order, worker
// count, and scheduling. A nil *Injector is valid everywhere and
// injects nothing.
type Injector struct {
	plan Plan
	mix  uint64
	fail map[int]bool

	// Pre-resolved obs handles; nil (no-op) until Instrument is called.
	cInjected  map[string]*obs.Counter
	gDegraded  *obs.Gauge
	cRecovered *obs.Counter
}

// Surface labels used for decisions and metrics.
const (
	SurfaceSink  = "sink"
	SurfaceBatch = "batch"
	SurfaceWrite = "write"
	SurfaceDelay = "delay"
	SurfacePoP   = "pop"
	SurfaceShip  = "ship"
)

// NewInjector binds plan to a study seed. A nil plan yields a nil
// injector (no injection anywhere).
func NewInjector(plan *Plan, studySeed uint64) *Injector {
	if plan == nil {
		return nil
	}
	p := plan.withDefaults()
	fail := make(map[int]bool, len(p.FailGroups))
	for _, g := range p.FailGroups {
		fail[g] = true
	}
	// Mix the plan seed with the study seed (splitmix-style odd
	// constant) so the same plan yields distinct fault positions on
	// distinct worlds while staying reproducible.
	return &Injector{
		plan: p,
		mix:  p.Seed ^ (studySeed * 0x9e3779b97f4a7c15),
		fail: fail,
	}
}

// Plan returns the injector's effective (defaulted) plan; nil-safe.
func (in *Injector) Plan() *Plan {
	if in == nil {
		return nil
	}
	p := in.plan
	return &p
}

// Instrument registers fault metrics on reg: injections per surface,
// recoveries, and the degradation gauge the run's guard raises when
// data is lost. Nil-safe on both receiver and registry.
func (in *Injector) Instrument(reg *obs.Registry) {
	if in == nil {
		return
	}
	in.cInjected = map[string]*obs.Counter{
		SurfaceSink:  reg.Counter(obs.L("faults_injected_total", "surface", SurfaceSink)),
		SurfaceBatch: reg.Counter(obs.L("faults_injected_total", "surface", SurfaceBatch)),
		SurfaceWrite: reg.Counter(obs.L("faults_injected_total", "surface", SurfaceWrite)),
		SurfaceDelay: reg.Counter(obs.L("faults_injected_total", "surface", SurfaceDelay)),
		SurfacePoP:   reg.Counter(obs.L("faults_injected_total", "surface", SurfacePoP)),
		SurfaceShip:  reg.Counter(obs.L("faults_injected_total", "surface", SurfaceShip)),
	}
	in.cRecovered = reg.Counter("faults_transient_recovered_total")
	in.gDegraded = reg.Gauge("faults_degraded")
}

func (in *Injector) inject(surface string) {
	if c := in.cInjected[surface]; c != nil {
		c.Inc()
	}
}

// recovered records one transient fault fully absorbed by retry.
func (in *Injector) recovered() {
	if in != nil {
		in.cRecovered.Inc()
	}
}

// MarkDegraded raises the degradation gauge: the run has lost data.
func (in *Injector) MarkDegraded() {
	if in != nil {
		in.gDegraded.Set(1)
	}
}

// sinkDraw is one sink-or-write failure decision: Transient
// consecutive failures before success, or Permanent.
type sinkDraw struct {
	Transient int
	Permanent bool
}

// None reports a clean decision.
func (f sinkDraw) None() bool { return f.Transient == 0 && !f.Permanent }

// sinkFault decides the collector-sink outcome for the sample whose
// SessionID is id (stable across sharding and replay). Like batchFault
// and writeFault it is unexported on purpose: producers reach the
// decisions only through Guard, which owns what follows from them.
func (in *Injector) sinkFault(id uint64) sinkDraw {
	return in.drawSink(SurfaceSink, int(id))
}

// writeFault decides the dataset-writer outcome for one group's encoded
// batch, reusing the sink probabilities at batch granularity.
func (in *Injector) writeFault(group int) sinkDraw {
	return in.drawSink(SurfaceWrite, group)
}

func (in *Injector) drawSink(surface string, id int) sinkDraw {
	if in == nil || (in.plan.SinkTransientP == 0 && in.plan.SinkPermanentP == 0) {
		return sinkDraw{}
	}
	r := rng.ChildAt(in.mix, surface, id)
	u := r.Float64()
	switch {
	case u < in.plan.SinkPermanentP:
		in.inject(surface)
		return sinkDraw{Permanent: true}
	case u < in.plan.SinkPermanentP+in.plan.SinkTransientP:
		in.inject(surface)
		return sinkDraw{Transient: 1 + r.IntN(in.plan.SinkStreak)}
	}
	return sinkDraw{}
}

// BatchFaultKind classifies a group batch's fate.
type BatchFaultKind int

// Batch fault kinds.
const (
	BatchOK       BatchFaultKind = iota
	BatchTruncate                // lose the batch tail
	BatchCorrupt                 // drop the whole batch
	BatchFail                    // plan-listed permanent group failure
)

// String names the kind for coverage reasons.
func (k BatchFaultKind) String() string {
	switch k {
	case BatchTruncate:
		return "truncated-batch"
	case BatchCorrupt:
		return "corrupt-batch"
	case BatchFail:
		return "permanent-failure"
	}
	return "ok"
}

// batchFault decides a group batch's fate, keyed by group index. A
// group draws the same fate every run of the same (plan, study) pair.
func (in *Injector) batchFault(group int) BatchFaultKind {
	if in == nil {
		return BatchOK
	}
	if in.fail[group] {
		in.inject(SurfaceBatch)
		return BatchFail
	}
	if in.plan.CorruptP == 0 && in.plan.TruncateP == 0 {
		return BatchOK
	}
	r := rng.ChildAt(in.mix, SurfaceBatch, group)
	u := r.Float64()
	switch {
	case u < in.plan.CorruptP:
		in.inject(SurfaceBatch)
		return BatchCorrupt
	case u < in.plan.CorruptP+in.plan.TruncateP:
		in.inject(SurfaceBatch)
		return BatchTruncate
	}
	return BatchOK
}

// Outage reports whether pop is down for window win — the world
// generator consults this through World.PoPDown and suppresses the
// window's sessions.
func (in *Injector) Outage(pop string, win int) bool {
	if in == nil || len(in.plan.Outages) == 0 {
		return false
	}
	for _, o := range in.plan.Outages {
		if o.Covers(pop, win) {
			in.inject(SurfacePoP)
			return true
		}
	}
	return false
}

// ShardDelay returns the injected delay for a shard's nth dispatch —
// scheduling chaos that perturbs timing but must not change a single
// output byte.
func (in *Injector) ShardDelay(shard, n int) time.Duration {
	if in == nil || in.plan.DelayP <= 0 {
		return 0
	}
	r := rng.ChildAt(in.mix, SurfaceDelay, shard<<20|n)
	if !r.Bool(in.plan.DelayP) {
		return 0
	}
	in.inject(SurfaceDelay)
	return time.Duration(float64(in.plan.DelayMax) * r.Float64())
}

// ShipFaultKind classifies one wire-shipment attempt's injected fate.
type ShipFaultKind int

// Ship fault kinds.
const (
	ShipOK       ShipFaultKind = iota
	ShipDrop                   // sever the connection before any byte of the frame
	ShipTruncate               // write half the frame, then sever
	ShipDup                    // deliver the shipment twice (receiver must dedup)
	ShipDelay                  // delay the send, then deliver normally
)

// String names the kind for trace event details and metrics.
func (k ShipFaultKind) String() string {
	switch k {
	case ShipDrop:
		return "ship-drop"
	case ShipTruncate:
		return "ship-trunc"
	case ShipDup:
		return "ship-dup"
	case ShipDelay:
		return "ship-delay"
	}
	return "ok"
}

// ShipFault is one shipment attempt's wire decision.
type ShipFault struct {
	Kind ShipFaultKind
	// Delay is the injected send delay when Kind is ShipDelay.
	Delay time.Duration
}

// None reports a clean attempt.
func (f ShipFault) None() bool { return f.Kind == ShipOK }

// ShipFault decides one wire-shipment attempt's fate, keyed by
// (segment ID, retry attempt). Segment IDs are globally unique across
// PoPs (group*chunksPerGroup + chunk over the whole world), so the
// same plan injects the same faults whether the world ships from one
// process or many — and the total number of injected duplicates is a
// pure function of the plan, which the chaos tests check exactly.
// Attempts beyond 15 share the last attempt's decision (the retry
// budget is far smaller in practice).
func (in *Injector) ShipFault(segID, attempt int) ShipFault {
	if in == nil {
		return ShipFault{}
	}
	p := &in.plan
	if p.ShipDropP == 0 && p.ShipDupP == 0 && p.ShipTruncP == 0 && p.ShipDelayP == 0 {
		return ShipFault{}
	}
	if attempt > 15 {
		attempt = 15
	}
	r := rng.ChildAt(in.mix, SurfaceShip, segID<<4|attempt)
	u := r.Float64()
	switch {
	case u < p.ShipDropP:
		in.inject(SurfaceShip)
		return ShipFault{Kind: ShipDrop}
	case u < p.ShipDropP+p.ShipTruncP:
		in.inject(SurfaceShip)
		return ShipFault{Kind: ShipTruncate}
	case u < p.ShipDropP+p.ShipTruncP+p.ShipDupP:
		// Duplicates only fire on the first attempt so the injected-dup
		// count stays a function of the shipped set, not of how many
		// retries other faults happened to cause.
		if attempt == 0 {
			in.inject(SurfaceShip)
			return ShipFault{Kind: ShipDup}
		}
	case u < p.ShipDropP+p.ShipTruncP+p.ShipDupP+p.ShipDelayP:
		in.inject(SurfaceShip)
		return ShipFault{Kind: ShipDelay, Delay: time.Duration(float64(p.ShipDelayMax) * r.Float64())}
	}
	return ShipFault{}
}

// Policy returns the recovery policy the plan prescribes, with jitter
// drawn from a split RNG stream per call site (the id keeps concurrent
// sites from sharing a generator). Timing-only: jitter never affects
// outcomes.
func (in *Injector) Policy(id int) Policy {
	if in == nil {
		return Policy{}
	}
	return Policy{
		MaxAttempts: in.plan.RetryAttempts,
		BaseDelay:   in.plan.RetryBase,
		RNG:         rng.ChildAt(in.mix, "retry-jitter", id),
	}
}

// sinkFaultKey renders a sample's identity — its SessionID and its user
// group's key — for FaultError.Key.
func sinkFaultKey(id uint64, key string) string {
	return "sample " + strconv.FormatUint(id, 10) + " group " + key
}
