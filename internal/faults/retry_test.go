package faults

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/rng"
)

// fakeClock collects requested sleeps without sleeping.
type fakeClock struct{ slept []time.Duration }

func (c *fakeClock) sleep(d time.Duration) { c.slept = append(c.slept, d) }

func transientErr() error {
	return &FaultError{Surface: SurfaceSink, Key: "t", Transient: true}
}

func TestRetryRecoversTransient(t *testing.T) {
	clock := &fakeClock{}
	fails := 2
	calls := 0
	retries := 0
	err := Retry(context.Background(), Policy{
		MaxAttempts: 4, BaseDelay: time.Millisecond, Sleep: clock.sleep,
		OnRetry: func(int, error) { retries++ },
	}, func() error {
		calls++
		if fails > 0 {
			fails--
			return transientErr()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Retry = %v, want recovery", err)
	}
	if calls != 3 || retries != 2 || len(clock.slept) != 2 {
		t.Errorf("calls=%d retries=%d sleeps=%d, want 3/2/2", calls, retries, len(clock.slept))
	}
	// No jitter RNG: backoff is the pure doubling sequence.
	if clock.slept[0] != time.Millisecond || clock.slept[1] != 2*time.Millisecond {
		t.Errorf("backoff = %v, want [1ms 2ms]", clock.slept)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	clock := &fakeClock{}
	calls := 0
	err := Retry(context.Background(), Policy{MaxAttempts: 3, Sleep: clock.sleep}, func() error {
		calls++
		return transientErr()
	})
	if err == nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want exhaustion after 3", err, calls)
	}
	if !IsTransient(err) {
		t.Error("exhaustion error lost the transient cause (errors.As must still reach it)")
	}
}

func TestRetryReturnsPermanentAsIs(t *testing.T) {
	boom := errors.New("disk on fire")
	calls := 0
	err := Retry(context.Background(), Policy{MaxAttempts: 5, Sleep: func(time.Duration) { t.Fatal("slept on a permanent error") }}, func() error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want the original error after 1 call", err, calls)
	}
}

func TestRetryBackoffCapsAtMaxDelay(t *testing.T) {
	clock := &fakeClock{}
	calls := 0
	_ = Retry(context.Background(), Policy{
		MaxAttempts: 8, BaseDelay: 20 * time.Millisecond, Sleep: clock.sleep,
	}, func() error { calls++; return transientErr() })
	if len(clock.slept) != 7 {
		t.Fatalf("slept %d times, want 7", len(clock.slept))
	}
	for i, d := range clock.slept {
		if d > maxDelay {
			t.Errorf("sleep %d = %v exceeds the %v cap", i, d, maxDelay)
		}
	}
	if clock.slept[0] != 20*time.Millisecond || clock.slept[6] != maxDelay {
		t.Errorf("backoff = %v", clock.slept)
	}
}

func TestRetryJitterBoundsAndDeterminism(t *testing.T) {
	p := Policy{BaseDelay: 8 * time.Millisecond, RNG: rng.ChildAt(1, "jitter", 0)}
	q := Policy{BaseDelay: 8 * time.Millisecond, RNG: rng.ChildAt(1, "jitter", 0)}
	for i := 0; i < 100; i++ {
		d, e := p.delay(1), q.delay(1)
		if d != e {
			t.Fatal("same RNG lineage produced different jitter")
		}
		if d < 6*time.Millisecond || d > 10*time.Millisecond {
			t.Fatalf("jittered delay %v outside ±25%% of 8ms", d)
		}
	}
}

func TestRetryHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	boom := errors.New("operator interrupt")
	calls := 0
	err := Retry(ctx, Policy{MaxAttempts: 10, BaseDelay: time.Hour}, func() error {
		calls++
		cancel(boom) // cancelled while the first backoff is pending
		return transientErr()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the cancellation cause", err)
	}
	if calls != 1 {
		t.Errorf("op ran %d times after cancellation, want 1", calls)
	}
}

// BenchmarkRetryOverhead measures the recovery layer's cost on the
// no-fault path — the per-sample price every guarded offer pays when
// nothing is injected (see EXPERIMENTS.md).
func BenchmarkRetryOverhead(b *testing.B) {
	p := Policy{MaxAttempts: 4, BaseDelay: time.Millisecond}
	op := func() error { return nil }
	b.Run("bare-call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = op()
		}
	})
	b.Run("retry-wrapped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = Retry(context.Background(), p, op)
		}
	})
}
