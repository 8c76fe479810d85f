package engine

import (
	"math/rand/v2"
	"time"
)

// This file is the one retry-backoff policy every control-connection and
// mesh retry in the stack shares: capped exponential growth with
// equal jitter. The jitter matters for recovery storms — when a coordinator
// restarts, every worker re-dials at once, and a deterministic schedule
// keeps them colliding in lockstep on every attempt; randomizing the upper
// half of each delay de-synchronizes the herd while keeping a hard lower
// bound (half the deterministic delay) so backoff still backs off.

// RetryDelay returns the pause before retry attempt (1-based) of an
// operation whose initial backoff is base: the deterministic delay
// d = base·2^(attempt-1), capped at max, jittered uniformly into [d/2, d).
// A non-positive base or attempt yields zero (no wait); a non-positive max
// leaves growth uncapped.
func RetryDelay(base time.Duration, attempt int, max time.Duration) time.Duration {
	return retryDelayAt(base, attempt, max, rand.Float64())
}

// retryDelayAt is RetryDelay with the randomness injected: r must lie in
// [0, 1). Split out so tests can pin the bounds exactly.
func retryDelayAt(base time.Duration, attempt int, max time.Duration, r float64) time.Duration {
	if base <= 0 || attempt <= 0 {
		return 0
	}
	d := base
	for i := 1; i < attempt; i++ {
		if max > 0 && d >= max {
			d = max
			break
		}
		d *= 2
	}
	if max > 0 && d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(r*float64(d-half))
}
