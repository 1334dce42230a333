package world

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/sample"
)

// An installed PoPDown hook must suppress exactly the outage windows'
// sessions at the serving PoP, account every one of them as lost, and
// keep the surviving dataset deterministic at any worker count.
func TestPoPDownSuppressesAndAccounts(t *testing.T) {
	cfg := Config{Seed: 21, Groups: 30, Days: 2, SessionsPerGroupWindow: 4}
	base := New(cfg)
	baseline := base.GenerateAll()

	downPoP := baseline[0].PoP // guaranteed to serve traffic
	down := func(pop string, win int) bool { return pop == downPoP && win >= 10 && win < 20 }

	// gen returns the samples in (group, day) order, whatever order the
	// groups finished in, and the sessions lost.
	gen := func(workers int) ([]sample.Sample, int) {
		w := New(cfg)
		w.PoPDown = down
		days := make([][][]sample.Sample, cfg.Groups)
		lost := 0
		err := w.GenerateBatches(context.Background(), workers, func(b Batch) error {
			if b.Day != len(days[b.Group]) {
				return fmt.Errorf("group %d's day %d arrived after %d of its days", b.Group, b.Day, len(days[b.Group]))
			}
			days[b.Group] = append(days[b.Group], b.Samples)
			lost += b.Lost
			return nil
		})
		if err != nil {
			t.Fatalf("GenerateBatches(workers=%d): %v", workers, err)
		}
		var out []sample.Sample
		for _, group := range days {
			for _, day := range group {
				out = append(out, day...)
			}
		}
		return out, lost
	}

	seq, seqLost := gen(1)
	if seqLost == 0 {
		t.Fatalf("outage at %s windows [10,20) lost no sessions", downPoP)
	}
	// Outages subtract, never perturb: the degraded dataset is exactly
	// the baseline minus the suppressed windows, sample for sample.
	var want []sample.Sample
	for _, s := range baseline {
		if !down(s.PoP, int(s.Start/WindowDuration)) {
			want = append(want, s)
		}
	}
	if len(seq) != len(want) || len(seq)+seqLost != len(baseline) {
		t.Fatalf("got %d samples + %d lost, want %d surviving of %d baseline", len(seq), seqLost, len(want), len(baseline))
	}
	for i := range want {
		if seq[i].SessionID != want[i].SessionID || seq[i].MinRTT != want[i].MinRTT {
			t.Fatalf("surviving sample %d differs from baseline", i)
		}
	}

	// The outage removes sessions but must not perturb other groups: a
	// group with no window at the downed PoP generates byte-identically.
	par, parLost := gen(4)
	if parLost != seqLost {
		t.Fatalf("lost accounting differs across worker counts: %d vs %d", parLost, seqLost)
	}
	if len(par) != len(seq) {
		t.Fatalf("sample counts differ across worker counts: %d vs %d", len(par), len(seq))
	}
	for i := range seq {
		if seq[i].SessionID != par[i].SessionID || seq[i].MinRTT != par[i].MinRTT || seq[i].Start != par[i].Start {
			t.Fatalf("sample %d differs between workers=1 and workers=4", i)
		}
	}
}

// The outage counter must reflect the lost sessions.
func TestPoPDownObsCounter(t *testing.T) {
	cfg := Config{Seed: 22, Groups: 10, Days: 1, SessionsPerGroupWindow: 3}
	w := New(cfg)
	reg := obs.NewRegistry()
	w.Instrument(reg)
	w.PoPDown = func(string, int) bool { return true } // total blackout
	lost := 0
	for i := range w.Groups {
		lost += w.GenerateGroup(i, func(sample.Sample) {
			t.Fatal("total blackout still generated a sample")
		})
	}
	if lost == 0 {
		t.Fatal("total blackout lost nothing")
	}
	if got := reg.Counter("world_outage_sessions_total").Value(); got != int64(lost) {
		t.Fatalf("outage counter = %d, want %d", got, lost)
	}
}
