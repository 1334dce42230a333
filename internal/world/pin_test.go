package world

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/sample"
)

// TestWorldSampleStreamGolden pins the world's sample stream to a
// committed digest: every RNG draw and every bit of every Sample, in
// emission order, as JSON lines. TestDatasetDeterministic compares two
// runs of one tree with each other; this one compares against the
// stream as it was when the digest was taken, so a change that moves a
// draw fails here before it moves the canonical report. The second
// config puts groups behind policers, the path flowsim's token bucket
// runs on. A change that moves the stream on purpose regenerates the
// digests and says so in EXPERIMENTS.md.
func TestWorldSampleStreamGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"plain", Config{Seed: 17, Groups: 6, Days: 1, SessionsPerGroupWindow: 3}, "aac9900cb06e00564b7498a60acedb8ec4a6e5dac6316d07fce4e29a33d93818"},
		{"policed", Config{Seed: 23, Groups: 6, Days: 1, SessionsPerGroupWindow: 3, PolicedShare: 0.5}, "4258136dfe14f1c67a062cd781d776b7d6b1b4f3ac6e4efea8bd16bd83fc371c"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := New(tc.cfg)
			policed := 0
			for _, g := range w.Groups {
				if g.PoliceRate > 0 {
					policed++
				}
			}
			if (tc.cfg.PolicedShare > 0) != (policed > 0) {
				t.Fatalf("%d of %d groups policed at PolicedShare %v", policed, len(w.Groups), tc.cfg.PolicedShare)
			}
			h := sha256.New()
			sw := sample.NewWriter(h)
			for _, s := range w.GenerateAll() {
				if err := sw.Write(s); err != nil {
					t.Fatalf("Write: %v", err)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("%d samples hash to %s, want %s", sw.Count(), got, tc.want)
			}
		})
	}
}

// TestGenerateSessionAllocs pins the per-session allocation budget: a
// session's spec, transaction observations and methodology tally reuse
// its group's scratch, so what allocates is the sample's retained
// ResponseBytes plus the group's fixed set-up spread over its sessions.
func TestGenerateSessionAllocs(t *testing.T) {
	w := New(Config{Seed: 5, Groups: 4, Days: 1, SessionsPerGroupWindow: 8})
	sessions := 0
	w.GenerateGroup(0, func(sample.Sample) { sessions++ })
	if sessions < 200 {
		t.Fatalf("group 0 has %d sessions; too few to spread its set-up", sessions)
	}
	allocs := testing.AllocsPerRun(5, func() { w.GenerateGroup(0, func(sample.Sample) {}) })
	if per := allocs / float64(sessions); per > 2 {
		t.Errorf("%.0f allocations over %d sessions = %.2f per session, budget 2", allocs, sessions, per)
	}
	t.Logf("%.0f allocations over %d sessions = %.3f per session", allocs, sessions, allocs/float64(sessions))
}
