// Package faults is the deterministic fault-injection and recovery
// layer for the edge pipeline. The paper's methodology presumes a
// collection fabric that keeps producing trustworthy 15-minute
// aggregates while parts of the edge misbehave (§3.3–§3.4 reason
// explicitly about noisy and incomplete groups); this package gives the
// reproduction the same property, on purpose and under test:
//
//   - Plan: a parseable description of which failures to inject at
//     which surfaces — transient/permanent collector-sink errors,
//     slow shard workers, corrupt or truncated group
//     batches, and per-PoP world outages.
//   - Injector: the decision engine. Every decision is a pure function
//     of (plan seed ⊕ study seed, surface label, stable identity), so
//     the same plan on the same world injects exactly the same faults
//     at any worker count — the chaos analogue of the repo's
//     byte-identical-report guarantee.
//   - Retry: capped exponential backoff with jitter drawn from a split
//     RNG (timing only; outcomes stay deterministic).
//   - Coverage: graceful-degradation accounting. A degraded run is
//     explicitly labeled — groups dropped, samples lost, retries spent,
//     quarantined groups — never silently wrong.
//   - Guard: the recovery ladder itself. It turns Injector decisions
//     into retry, quarantine, tombstone or fail-fast, books the outcome
//     in Coverage and emits the matching trace events, once, for every
//     producer. The batch/write/sink decisions are unexported so that
//     Guard is the only way to reach them.
//
// Producers (study, seggen, studyd, cmd/edgesim) supply only the work
// and its producer-specific consequence as callbacks. The wire surface
// (ShipFault, internal/ship) is a transport policy of its own and stays
// with the shipper.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Outage marks one PoP as down for a half-open window range
// [From, To): sessions the world would have served from that PoP in
// those windows are never generated and are accounted as lost.
type Outage struct {
	PoP  string
	From int
	To   int
}

// Covers reports whether the outage suppresses (pop, win).
func (o Outage) Covers(pop string, win int) bool {
	return pop == o.PoP && win >= o.From && win < o.To
}

// Plan describes the faults to inject into one run. The zero value
// injects nothing; a nil *Plan everywhere means "no injection". Plans
// are data — they carry no RNG state — so the same plan drives the
// pipeline to identical outcomes at every worker count.
type Plan struct {
	// Seed separates the fault lineage from the world lineage; it is
	// mixed with the study seed so two studies with the same plan do not
	// share fault positions.
	Seed uint64

	// SinkTransientP is the per-sample probability that the collector
	// sink fails transiently (recoverable by retry). SinkStreak bounds
	// the consecutive transient failures one sample can draw (default 2).
	SinkTransientP float64
	SinkStreak     int
	// SinkPermanentP is the per-sample probability that the sink fails
	// permanently; the sample's user group is quarantined.
	SinkPermanentP float64

	// TruncateP is the per-group probability that the group loses the
	// tail of its windows; TruncateFrac (default 0.5) sizes the tail in
	// windows, not samples: a truncated group loses every window from
	// cut = Windows − round(TruncateFrac × Windows) on, which a stream
	// knows before its first window.
	TruncateP    float64
	TruncateFrac float64
	// CorruptP is the per-group probability that the group's batch is
	// wholly corrupt and must be dropped.
	CorruptP float64
	// FailGroups lists world group indices whose batches permanently
	// fail — the "permanently-failing shard" scenario.
	FailGroups []int

	// DelayP is the per-shard-dispatch probability of an injected delay
	// of up to DelayMax (default 2ms) — scheduling chaos that must not
	// change any output byte.
	DelayP   float64
	DelayMax time.Duration

	// Outages lists per-PoP world outages.
	Outages []Outage

	// Wire-fault probabilities for the segment-shipping surface
	// (internal/ship), decided per (segment, attempt): ShipDropP drops
	// the shipment before any byte is written and severs the
	// connection; ShipTruncP writes half the frame then severs;
	// ShipDupP delivers the shipment twice (the merger must dedup);
	// ShipDelayP delays the send by up to ShipDelayMax (default 2ms).
	// All are transport-level: they may never change report bytes.
	ShipDropP    float64
	ShipDupP     float64
	ShipTruncP   float64
	ShipDelayP   float64
	ShipDelayMax time.Duration

	// RetryAttempts and RetryBase override the recovery policy derived
	// from the plan (defaults: 4 attempts, 1ms base backoff).
	RetryAttempts int
	RetryBase     time.Duration
}

// withDefaults fills derived fields.
func (p Plan) withDefaults() Plan {
	if p.SinkStreak <= 0 {
		p.SinkStreak = 2
	}
	if p.TruncateFrac <= 0 || p.TruncateFrac > 1 {
		p.TruncateFrac = 0.5
	}
	if p.DelayMax <= 0 {
		p.DelayMax = 2 * time.Millisecond
	}
	if p.ShipDelayMax <= 0 {
		p.ShipDelayMax = 2 * time.Millisecond
	}
	if p.RetryAttempts <= 0 {
		p.RetryAttempts = 4
	}
	if p.RetryBase <= 0 {
		p.RetryBase = time.Millisecond
	}
	return p
}

// Spec renders the plan back into its canonical spec string — the form
// the coverage section prints, so a degraded report names the exact
// plan that degraded it. Fields at their zero/default value are
// elided; the output is deterministic.
func (p *Plan) Spec() string {
	if p == nil {
		return "none"
	}
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if p.Seed != 0 {
		add("seed", strconv.FormatUint(p.Seed, 10))
	}
	if p.SinkTransientP > 0 {
		add("sink-transient", trimFloat(p.SinkTransientP))
	}
	if p.SinkStreak > 0 {
		add("sink-streak", strconv.Itoa(p.SinkStreak))
	}
	if p.SinkPermanentP > 0 {
		add("sink-permanent", trimFloat(p.SinkPermanentP))
	}
	if p.TruncateP > 0 {
		add("truncate", trimFloat(p.TruncateP))
	}
	if p.TruncateFrac > 0 {
		add("truncate-frac", trimFloat(p.TruncateFrac))
	}
	if p.CorruptP > 0 {
		add("corrupt", trimFloat(p.CorruptP))
	}
	if len(p.FailGroups) > 0 {
		gs := make([]string, len(p.FailGroups))
		for i, g := range p.FailGroups {
			gs[i] = strconv.Itoa(g)
		}
		add("fail-group", strings.Join(gs, "|"))
	}
	if p.DelayP > 0 {
		add("delay", trimFloat(p.DelayP))
		add("delay-max", p.DelayMax.String())
	}
	for _, o := range p.Outages {
		add("outage", fmt.Sprintf("%s:%d-%d", o.PoP, o.From, o.To))
	}
	if p.ShipDropP > 0 {
		add("ship-drop", trimFloat(p.ShipDropP))
	}
	if p.ShipDupP > 0 {
		add("ship-dup", trimFloat(p.ShipDupP))
	}
	if p.ShipTruncP > 0 {
		add("ship-trunc", trimFloat(p.ShipTruncP))
	}
	if p.ShipDelayP > 0 {
		add("ship-delay", trimFloat(p.ShipDelayP))
		add("ship-delay-max", p.ShipDelayMax.String())
	}
	if p.RetryAttempts > 0 {
		add("retries", strconv.Itoa(p.RetryAttempts))
	}
	if p.RetryBase > 0 {
		add("retry-base", p.RetryBase.String())
	}
	if len(parts) == 0 {
		return "empty"
	}
	return strings.Join(parts, ";")
}

func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParsePlan parses a fault-plan spec: semicolon- or comma-separated
// key=value pairs. Keys:
//
//	seed=N                  fault lineage seed
//	sink-transient=P        per-sample transient sink-failure probability
//	sink-streak=N           max consecutive transient failures (default 2)
//	sink-permanent=P        per-sample permanent sink-failure probability
//	truncate=P              per-group batch-truncation probability
//	truncate-frac=F         tail fraction lost on truncation (default 0.5)
//	corrupt=P               per-group whole-batch corruption probability
//	fail-group=I|J|...      group indices whose batches permanently fail
//	delay=P                 per-dispatch shard-delay probability
//	delay-max=D             max injected delay (default 2ms)
//	outage=POP:A-B          PoP down for windows [A, B)
//	ship-drop=P             per-attempt shipment drop probability
//	ship-dup=P              per-shipment duplicate-delivery probability
//	ship-trunc=P            per-attempt mid-frame truncation probability
//	ship-delay=P            per-attempt shipment delay probability
//	ship-delay-max=D        max injected shipment delay (default 2ms)
//	retries=N               retry attempts (default 4)
//	retry-base=D            base backoff (default 1ms)
//
// Durations use Go syntax ("50ms"). The empty string returns a nil
// plan (no injection).
func ParsePlan(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	p := &Plan{}
	fields := strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' })
	for _, f := range fields {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("faults: bad plan field %q: want key=value", f)
		}
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseUint(v, 10, 64)
		case "sink-transient":
			p.SinkTransientP, err = parseProb(v)
		case "sink-streak":
			p.SinkStreak, err = strconv.Atoi(v)
		case "sink-permanent":
			p.SinkPermanentP, err = parseProb(v)
		case "truncate":
			p.TruncateP, err = parseProb(v)
		case "truncate-frac":
			p.TruncateFrac, err = parseProb(v)
		case "corrupt":
			p.CorruptP, err = parseProb(v)
		case "fail-group":
			for _, g := range strings.Split(v, "|") {
				n, perr := strconv.Atoi(strings.TrimSpace(g))
				if perr != nil {
					return nil, fmt.Errorf("faults: bad fail-group index %q", g)
				}
				p.FailGroups = append(p.FailGroups, n)
			}
			sort.Ints(p.FailGroups)
		case "delay":
			p.DelayP, err = parseProb(v)
		case "delay-max":
			p.DelayMax, err = time.ParseDuration(v)
		case "outage":
			var o Outage
			o, err = parseOutage(v)
			p.Outages = append(p.Outages, o)
		case "ship-drop":
			p.ShipDropP, err = parseProb(v)
		case "ship-dup":
			p.ShipDupP, err = parseProb(v)
		case "ship-trunc":
			p.ShipTruncP, err = parseProb(v)
		case "ship-delay":
			p.ShipDelayP, err = parseProb(v)
		case "ship-delay-max":
			p.ShipDelayMax, err = time.ParseDuration(v)
		case "retries":
			p.RetryAttempts, err = strconv.Atoi(v)
		case "retry-base":
			p.RetryBase, err = time.ParseDuration(v)
		default:
			return nil, fmt.Errorf("faults: unknown plan key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: bad value for %s: %v", k, err)
		}
	}
	return p, nil
}

func parseProb(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if f < 0 || f > 1 {
		return 0, fmt.Errorf("probability %v outside [0, 1]", f)
	}
	return f, nil
}

func parseOutage(v string) (Outage, error) {
	pop, rng, ok := strings.Cut(v, ":")
	if !ok {
		return Outage{}, fmt.Errorf("want POP:FROM-TO, got %q", v)
	}
	a, b, ok := strings.Cut(rng, "-")
	if !ok {
		return Outage{}, fmt.Errorf("want POP:FROM-TO, got %q", v)
	}
	from, err1 := strconv.Atoi(a)
	to, err2 := strconv.Atoi(b)
	if err1 != nil || err2 != nil || from < 0 || to <= from {
		return Outage{}, fmt.Errorf("bad window range %q", rng)
	}
	return Outage{PoP: pop, From: from, To: to}, nil
}

// FaultError is an injected (or classified) failure. Transient
// failures are retryable; everything else is permanent and must be
// quarantined or propagated.
type FaultError struct {
	// Surface names the injection point ("sink", "batch", "write").
	Surface string
	// Key identifies the failing unit (sample ID, group index, ...).
	Key string
	// Transient marks the failure recoverable by retry.
	Transient bool
}

// Error renders the fault.
func (e *FaultError) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("injected %s fault at %s (%s)", kind, e.Surface, e.Key)
}

// IsTransient reports whether err is (or wraps) a transient fault —
// the default retry predicate.
func IsTransient(err error) bool {
	var fe *FaultError
	return errors.As(err, &fe) && fe.Transient
}
