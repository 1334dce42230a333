package faults

import (
	"strings"
	"testing"
	"time"
)

func TestParsePlanRoundTrip(t *testing.T) {
	spec := "seed=9;sink-transient=0.01;sink-streak=3;sink-permanent=0.001;truncate=0.2;truncate-frac=0.25;" +
		"corrupt=0.05;fail-group=2|7;delay=0.1;delay-max=3ms;outage=gru:10-20;retries=5;retry-base=2ms"
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 || p.SinkTransientP != 0.01 || p.SinkStreak != 3 || p.SinkPermanentP != 0.001 {
		t.Errorf("sink fields wrong: %+v", p)
	}
	if p.TruncateP != 0.2 || p.TruncateFrac != 0.25 || p.CorruptP != 0.05 {
		t.Errorf("batch fields wrong: %+v", p)
	}
	if len(p.FailGroups) != 2 || p.FailGroups[0] != 2 || p.FailGroups[1] != 7 {
		t.Errorf("FailGroups = %v", p.FailGroups)
	}
	if p.DelayP != 0.1 || p.DelayMax != 3*time.Millisecond {
		t.Errorf("timing fields wrong: %+v", p)
	}
	if len(p.Outages) != 1 || !p.Outages[0].Covers("gru", 15) || p.Outages[0].Covers("gru", 20) || p.Outages[0].Covers("ams", 15) {
		t.Errorf("outage wrong: %+v", p.Outages)
	}
	if p.RetryAttempts != 5 || p.RetryBase != 2*time.Millisecond {
		t.Errorf("retry fields wrong: %+v", p)
	}
	// Spec → ParsePlan → Spec must be a fixed point: the coverage
	// section prints Spec, and determinism depends on it being canonical.
	again, err := ParsePlan(p.Spec())
	if err != nil {
		t.Fatalf("reparsing %q: %v", p.Spec(), err)
	}
	if got, want := again.Spec(), p.Spec(); got != want {
		t.Errorf("spec not a fixed point:\n got %q\nwant %q", got, want)
	}
}

func TestParsePlanEmptyAndErrors(t *testing.T) {
	for _, s := range []string{"", "  ", "none"} {
		if p, err := ParsePlan(s); p != nil || err != nil {
			t.Errorf("ParsePlan(%q) = %v, %v; want nil, nil", s, p, err)
		}
	}
	bad := []string{
		"sink-transient=1.5", // probability out of range
		"outage=gru",         // malformed outage
		"outage=gru:9-3",     // inverted range
		"delay-max=fast",     // bad duration
		"sink-transient",     // missing value
	}
	for _, s := range bad {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) accepted", s)
		}
	}
	unknown := []string{
		"bogus-key=1",
		"stall-shard=0",
		"stall-for=1s",
		"stage-budget=30ms",
	}
	for _, s := range unknown {
		if _, err := ParsePlan(s); err == nil || !strings.Contains(err.Error(), "unknown plan key") {
			t.Errorf("ParsePlan(%q) = %v, want an unknown plan key error", s, err)
		}
	}
}

// Fault decisions must be pure functions of identity: independent of
// call order, repeatable, and differently placed under different seeds.
func TestInjectorDecisionsArePure(t *testing.T) {
	plan := &Plan{Seed: 3, SinkTransientP: 0.2, SinkPermanentP: 0.05, TruncateP: 0.2, CorruptP: 0.1}
	a := NewInjector(plan, 42)
	b := NewInjector(plan, 42)
	ids := make([]uint64, 500)
	for i := range ids {
		ids[i] = uint64(i*977 + 13)
	}
	// b sees the same identities in reverse order.
	for i := range ids {
		fa := a.sinkFault(ids[i])
		fb := b.sinkFault(ids[len(ids)-1-i])
		fa2 := a.sinkFault(ids[i]) // repeatable on the same injector
		if fa != fa2 {
			t.Fatalf("sinkFault not repeatable for sample %d: %+v vs %+v", i, fa, fa2)
		}
		_ = fb
	}
	for i := range ids {
		if fa, fb := a.sinkFault(ids[i]), b.sinkFault(ids[i]); fa != fb {
			t.Fatalf("sinkFault differs across call orders for sample %d: %+v vs %+v", i, fa, fb)
		}
	}
	for g := 0; g < 200; g++ {
		if fa, fb := a.batchFault(g), b.batchFault(g); fa != fb {
			t.Fatalf("batchFault differs for group %d: %+v vs %+v", g, fa, fb)
		}
	}
	// A different study seed must move the faults.
	c := NewInjector(plan, 43)
	same := 0
	faults := 0
	for i := range ids {
		fa, fc := a.sinkFault(ids[i]), c.sinkFault(ids[i])
		if !fa.None() {
			faults++
			if fa == fc {
				same++
			}
		}
	}
	if faults == 0 {
		t.Fatal("plan injected no sink faults at p=0.25 over 500 samples")
	}
	if same == faults {
		t.Error("changing the study seed did not move any fault position")
	}
}

func TestInjectorNilSafety(t *testing.T) {
	var in *Injector
	if f := in.sinkFault(0); !f.None() {
		t.Error("nil injector injected a sink fault")
	}
	if f := in.batchFault(0); f != BatchOK {
		t.Error("nil injector injected a batch fault")
	}
	if in.Outage("gru", 0) || in.ShardDelay(0, 0) != 0 {
		t.Error("nil injector injected timing faults")
	}
	in.Instrument(nil)
	in.recovered()
	in.MarkDegraded()
	if NewInjector(nil, 1) != nil {
		t.Error("NewInjector(nil) != nil")
	}
}

func TestFailGroupsAlwaysFail(t *testing.T) {
	in := NewInjector(&Plan{FailGroups: []int{4}}, 1)
	if f := in.batchFault(4); f != BatchFail {
		t.Errorf("fail-group batch fate = %v", f)
	}
	if f := in.batchFault(5); f != BatchOK {
		t.Errorf("clean group fate = %v", f)
	}
}

func TestCoverageFinalizeAndDegraded(t *testing.T) {
	a := Coverage{SamplesLostOutage: 1, SamplesLostQuarantined: 4, GroupsDropped: 1,
		Quarantined: []QuarantinedGroup{{Key: "z", SamplesLost: 3}, {Key: "a", SamplesLost: 1}}}
	a.Finalize()
	if a.SamplesLost() != 5 {
		t.Errorf("SamplesLost = %d, want 5: %+v", a.SamplesLost(), a)
	}
	if len(a.Quarantined) != 2 || a.Quarantined[0].Key != "a" || a.Quarantined[1].Key != "z" {
		t.Errorf("finalize did not sort: %+v", a.Quarantined)
	}
	if !a.Degraded() {
		t.Error("lossy ledger reports not degraded")
	}
	clean := Coverage{RetriesSpent: 9, TransientRecovered: 9}
	if clean.Degraded() {
		t.Error("recovered-only ledger reports degraded: retries cost time, not samples")
	}
}

func TestFaultErrorClassification(t *testing.T) {
	tr := &FaultError{Surface: SurfaceSink, Key: "k", Transient: true}
	if !IsTransient(tr) {
		t.Error("transient fault not classified transient")
	}
	if IsTransient(&FaultError{Surface: SurfaceBatch}) || IsTransient(nil) {
		t.Error("permanent/nil classified transient")
	}
	if !strings.Contains(tr.Error(), "transient") || !strings.Contains(tr.Error(), SurfaceSink) {
		t.Errorf("Error() = %q", tr.Error())
	}
}

func TestParsePlanShipKeys(t *testing.T) {
	p, err := ParsePlan("seed=4;ship-drop=0.2;ship-dup=0.1;ship-trunc=0.05;ship-delay=0.3;ship-delay-max=5ms")
	if err != nil {
		t.Fatal(err)
	}
	if p.ShipDropP != 0.2 || p.ShipDupP != 0.1 || p.ShipTruncP != 0.05 || p.ShipDelayP != 0.3 || p.ShipDelayMax != 5*time.Millisecond {
		t.Errorf("ship fields wrong: %+v", p)
	}
	again, err := ParsePlan(p.Spec())
	if err != nil {
		t.Fatalf("reparsing %q: %v", p.Spec(), err)
	}
	if got, want := again.Spec(), p.Spec(); got != want {
		t.Errorf("ship spec not a fixed point:\n got %q\nwant %q", got, want)
	}
	if _, err := ParsePlan("ship-drop=2"); err == nil {
		t.Error("ship-drop=2 accepted")
	}
}

// Ship decisions are pure functions of (segment, attempt): repeatable,
// independent of call order, with duplicates confined to attempt 0 so
// the injected-dup count does not depend on retry dynamics.
func TestShipFaultDeterminism(t *testing.T) {
	plan := &Plan{Seed: 7, ShipDropP: 0.2, ShipDupP: 0.15, ShipTruncP: 0.1, ShipDelayP: 0.2}
	a := NewInjector(plan, 42)
	b := NewInjector(plan, 42)
	kinds := map[ShipFaultKind]int{}
	for seg := 0; seg < 400; seg++ {
		for att := 0; att < 3; att++ {
			fa, fb := a.ShipFault(seg, att), b.ShipFault(seg, att)
			if fa != fb {
				t.Fatalf("ShipFault(%d,%d) not repeatable: %+v vs %+v", seg, att, fa, fb)
			}
			kinds[fa.Kind]++
			if fa.Kind == ShipDup && att != 0 {
				t.Fatalf("duplicate injected on retry attempt %d", att)
			}
			if fa.Kind == ShipDelay && (fa.Delay < 0 || fa.Delay >= 2*time.Millisecond) {
				t.Fatalf("delay %v outside [0, default max)", fa.Delay)
			}
		}
	}
	// Reverse order must draw identical decisions.
	for seg := 399; seg >= 0; seg-- {
		if got, want := b.ShipFault(seg, 1), a.ShipFault(seg, 1); got != want {
			t.Fatalf("order-dependent decision at seg %d", seg)
		}
	}
	for _, k := range []ShipFaultKind{ShipDrop, ShipDup, ShipTruncate, ShipDelay} {
		if kinds[k] == 0 {
			t.Errorf("kind %v never drawn over 1200 attempts", k)
		}
	}
	if a.ShipFault(1, 20) != a.ShipFault(1, 15) {
		t.Error("attempts beyond 15 do not share attempt 15's decision")
	}
	var nilInj *Injector
	if !nilInj.ShipFault(3, 0).None() {
		t.Error("nil injector injected a ship fault")
	}
	if !NewInjector(&Plan{Seed: 1}, 1).ShipFault(3, 0).None() {
		t.Error("zero ship probabilities injected a fault")
	}
}
