package serve

import (
	"context"
	"errors"
	"math/rand"
	"net/url"
	"time"
)

// RetryPolicy is the client-side half of the daemon's load story: the
// server sheds with 429 + Retry-After, and a polite client backs off
// and returns. Bounded exponential backoff with jitter (so a shed
// burst doesn't resynchronize into a retry burst), honoring the
// server's Retry-After hint as a floor, retrying shed responses and
// transient transport errors only.
//
// The zero value performs no retries — library callers and existing
// tests see single-shot semantics unless they opt in.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first call included);
	// <= 1 means no retries.
	MaxAttempts int
	// BaseDelay is the first backoff; doubles per retry. 0 means 200ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth. 0 means 5s.
	MaxDelay time.Duration

	// Test seams: deterministic jitter and instant sleeps.
	rand  func() float64
	sleep func(context.Context, time.Duration) error
}

// retryJitter spreads each backoff uniformly within ±20%.
const retryJitter = 0.2

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 200 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.rand == nil {
		p.rand = rand.Float64
	}
	if p.sleep == nil {
		p.sleep = sleepCtx
	}
	return p
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// delay computes the backoff before retry `attempt` (1-based): capped
// exponential with ±retryJitter jitter, floored by a shed response's
// Retry-After.
func (p RetryPolicy) delay(attempt int, err error) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	d = time.Duration(float64(d) * (1 + retryJitter*(2*p.rand()-1)))
	var shed *ShedError
	if errors.As(err, &shed) && shed.RetryAfter > 0 {
		if ra := time.Duration(shed.RetryAfter) * time.Second; ra > d {
			d = ra
		}
	}
	return d
}

// retryable classifies an error: shed responses (the server said
// "later") and transport-level failures (connection refused/reset
// while a daemon restarts) are worth retrying; everything else — 4xx
// semantics, decode failures, a cancelled context — is not.
func retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	var shed *ShedError
	if errors.As(err, &shed) {
		return true
	}
	var uerr *url.Error
	return errors.As(err, &uerr)
}

// withRetry runs call under the client's retry policy.
func (c *Client) withRetry(ctx context.Context, call func() error) error {
	pol := c.Retry.withDefaults()
	attempts := pol.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 1; ; attempt++ {
		err := call()
		if err == nil || attempt >= attempts || !retryable(ctx, err) {
			return err
		}
		if serr := pol.sleep(ctx, pol.delay(attempt, err)); serr != nil {
			return err
		}
	}
}
