package faults

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/rng"
)

// maxDelay caps Retry's backoff.
const maxDelay = 50 * time.Millisecond

// Policy shapes Retry: capped exponential backoff with jitter, retrying
// the faults IsTransient classifies as transient. The zero value makes
// up to 4 attempts with a 1ms base delay; every delay is capped at
// maxDelay.
type Policy struct {
	// MaxAttempts is the total number of op invocations (first try
	// included). Default 4.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it. Default 1ms.
	BaseDelay time.Duration
	// RNG is the jitter stream: when set, each delay is spread uniformly
	// over ±25% of its value. Each concurrent call site must hold its
	// own split (rng.Child/ChildAt); Retry never shares it. Jitter
	// affects timing only, never outcomes.
	RNG *rng.RNG
	// Sleep replaces the real clock (tests, virtual time). Nil means a
	// context-aware real sleep.
	Sleep func(time.Duration)
	// OnRetry observes each retry before its backoff: attempt is the
	// 1-based retry number, err the failure being retried. Used for
	// retry accounting.
	OnRetry func(attempt int, err error)
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	return p
}

// delay computes the backoff before the attempt-th retry (1-based).
func (p Policy) delay(attempt int) time.Duration {
	d := min(float64(p.BaseDelay)*math.Pow(2, float64(attempt-1)), float64(maxDelay))
	if p.RNG != nil {
		d *= 0.75 + 0.5*p.RNG.Float64()
	}
	return time.Duration(d)
}

// Retry runs op, retrying transient failures (IsTransient) with capped
// exponential backoff until an attempt succeeds, a non-transient error
// surfaces (returned as-is), the attempt budget is
// exhausted (the last error is returned wrapped with the budget), or
// ctx is cancelled mid-backoff (the cancellation cause is returned,
// wrapping the pending error).
func Retry(ctx context.Context, p Policy, op func() error) error {
	p = p.withDefaults()
	var err error
	for attempt := 1; ; attempt++ {
		err = op()
		if err == nil {
			return nil
		}
		if !IsTransient(err) {
			return err
		}
		if attempt >= p.MaxAttempts {
			return fmt.Errorf("retry budget exhausted after %d attempts: %w", p.MaxAttempts, err)
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, err)
		}
		if serr := p.sleep(ctx, p.delay(attempt)); serr != nil {
			return fmt.Errorf("%w (retrying %v)", serr, err)
		}
	}
}

// sleep waits d or until ctx is cancelled.
func (p Policy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		p.Sleep(d)
		return nil
	}
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		if cause := context.Cause(ctx); cause != nil {
			return cause
		}
		return ctx.Err()
	}
}
