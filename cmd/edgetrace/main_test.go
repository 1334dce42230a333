package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/study"
	"repro/internal/trace"
	"repro/internal/world"
)

// writeTrace runs a small chaos study and writes its trace under dir,
// returning the trace path.
func writeTrace(t *testing.T, dir, name string, spec string) string {
	t.Helper()
	var plan *faults.Plan
	if spec != "" {
		p, err := faults.ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan: %v", err)
		}
		plan = p
	}
	cfg := world.Config{Seed: 1234, Groups: 17, Days: 1, SessionsPerGroupWindow: 28}
	rec := trace.New(cfg.Seed)
	if _, err := study.RunCtx(context.Background(), cfg, study.Options{Workers: 4, Plan: plan, Trace: rec}); err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	path := filepath.Join(dir, name)
	if err := rec.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

const testSpec = "seed=7;sink-transient=0.004;sink-permanent=0.0004;truncate=0.15;corrupt=0.05;" +
	"fail-group=3;outage=gru:20-40;delay=0.2;delay-max=300us;retries=4;retry-base=50us"

func TestSubcommandsOverChaosTrace(t *testing.T) {
	dir := t.TempDir()
	path := writeTrace(t, dir, "chaos.trace", testSpec)

	var b bytes.Buffer
	if err := runStages(&b, []string{path}); err != nil {
		t.Fatalf("stages: %v", err)
	}
	for _, want := range []string{"generate", "seal", "feed", "spans"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("stages output missing %q:\n%s", want, b.String())
		}
	}

	b.Reset()
	if err := runCritPath(&b, []string{"-n", "3", path}); err != nil {
		t.Fatalf("critpath: %v", err)
	}
	if !strings.Contains(b.String(), "window") || !strings.Contains(b.String(), "weight") {
		t.Errorf("critpath output lacks window/weight lines:\n%s", b.String())
	}

	b.Reset()
	if err := runCauses(&b, []string{path}); err != nil {
		t.Fatalf("causes: %v (output:\n%s)", err, b.String())
	}
	out := b.String()
	for _, want := range []string{"sender", "network", "receiver", "reconciled", "retries spent"} {
		if !strings.Contains(out, want) {
			t.Errorf("causes output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("causes reported a reconciliation mismatch:\n%s", out)
	}
}

func TestDiffAgreesAndDiffers(t *testing.T) {
	dir := t.TempDir()
	a := writeTrace(t, dir, "a.trace", testSpec)
	b := writeTrace(t, dir, "b.trace", testSpec)
	c := writeTrace(t, dir, "c.trace", "") // fault-free: different story

	var out bytes.Buffer
	if err := runDiff(&out, []string{a, b}); err != nil {
		t.Fatalf("diff of identical runs errored: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "traces agree") {
		t.Errorf("identical runs did not agree:\n%s", out.String())
	}

	out.Reset()
	if err := runDiff(&out, []string{a, c}); err == nil {
		t.Errorf("chaos vs clean runs reported no difference:\n%s", out.String())
	}
}

func TestCausesCleanRun(t *testing.T) {
	dir := t.TempDir()
	path := writeTrace(t, dir, "clean.trace", "")
	var b bytes.Buffer
	if err := runCauses(&b, []string{path}); err != nil {
		t.Fatalf("causes on a clean run: %v", err)
	}
	if !strings.Contains(b.String(), "degraded nothing") {
		t.Errorf("clean run not reported as loss-free:\n%s", b.String())
	}
}

// TestCausesReportsShippingDedup: a merge-tier trace carrying the
// run-level dedup mark surfaces it in the causes report, labeled as
// absorbed redundancy rather than loss.
func TestCausesReportsShippingDedup(t *testing.T) {
	dir := t.TempDir()
	rec := trace.New(99)
	tb := rec.Buf()
	tb.Emit(trace.Event{
		Track: trace.TrackRun, Phase: trace.PhaseRun, Win: -1, Seq: 1 << 20,
		Kind: trace.KMark, Stage: trace.CoverageStage, Value: 7, Detail: trace.MarkDedup,
	})
	path := filepath.Join(dir, "merge.trace")
	if err := rec.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	var b bytes.Buffer
	if err := runCauses(&b, []string{path}); err != nil {
		t.Fatalf("causes: %v", err)
	}
	if !strings.Contains(b.String(), "7 duplicate deliveries dropped idempotently") {
		t.Errorf("causes output missing the dedup line:\n%s", b.String())
	}
}
