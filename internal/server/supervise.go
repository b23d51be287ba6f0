package server

import (
	"time"
)

// Supervision policy: which terminal states exist, which failures are
// worth retrying, how long a retry backs off, and what Retry-After
// hint an overloaded queue hands back. Everything here is pure
// computation over scheduler state — the clocks and timers live in
// server.go, the policy lives here so it is unit-testable without a
// running server.

// terminal reports whether state is a terminal job state. Every
// enumeration of "is this job finished" in the package (scheduler,
// HTTP result/SSE handlers, ledger resume) goes through this, so a new
// terminal state like deadline_exceeded cannot be half-plumbed.
func terminal(state State) bool {
	switch state {
	case StateDone, StatePartial, StateFailed, StateCanceled, StateDeadline:
		return true
	}
	return false
}

// retryable reports whether a failure classification is worth an
// automatic retry. Only engine-side failures qualify: an engine error
// or a panic quarantine exhaustion can be transient (an injected
// fault, a wedged batch), and the job's own checkpoint makes the retry
// a resume rather than a recompute. Client cancels, deadline expiry
// and bad requests are not the engine's fault and never retry.
func retryable(errType ErrType) bool {
	return errType == ErrTypeEngine || errType == ErrTypePanic
}

// splitmix64 is the same mixer the MC engine uses for substream
// derivation: a full-period 64-bit scrambler, here driving backoff
// jitter so two servers with the same RetrySeed schedule identical
// retry timelines.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// retryDelay computes the backoff before retry number attempt (1 = the
// first retry): capped exponential base·2^(attempt-1) plus a
// deterministic jitter in [0, delay/2) derived from (seed, jobID,
// attempt). The jitter de-synchronizes a herd of failed jobs without
// introducing a wall-clock or math/rand dependency — the whole retry
// timeline is a function of the configuration.
func retryDelay(base, cap time.Duration, seed int64, jobID string, attempt int) time.Duration {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if cap < base {
		cap = base
	}
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	h := fnv1a(fnvOffset, jobID)
	r := splitmix64(uint64(seed) ^ h ^ uint64(attempt)<<32)
	if half := uint64(d) / 2; half > 0 {
		d += time.Duration(r % half)
	}
	if d > cap {
		d = cap
	}
	return d
}

// jobDeadline resolves a job's wall-clock budget from its spec and the
// server policy: the spec's own deadline if set, else the server
// default (0 = unlimited), both clamped to the server cap. The budget
// covers the job's whole supervised life — queue wait, every attempt,
// every backoff — so a retry loop can never outlive what the client
// asked for.
func jobDeadline(sp *Spec, def, max time.Duration) time.Duration {
	d := time.Duration(sp.DeadlineMS) * time.Millisecond
	if d <= 0 {
		d = def
	}
	if max > 0 && (d <= 0 || d > max) {
		d = max
	}
	return d
}

// retryAfterHint turns the scheduler's live state into a 429
// Retry-After value: with queued jobs draining at avg each across
// workers slots, the backlog clears in about queued·avg/workers.
// The configured floor keeps the hint sane before any attempt has
// completed (avg 0), and the cap keeps a pathological backlog from
// telling clients to go away for an hour.
func retryAfterHint(queued int, avg time.Duration, workers int, floor time.Duration) time.Duration {
	if floor <= 0 {
		floor = time.Second
	}
	if workers < 1 {
		workers = 1
	}
	est := time.Duration(queued) * avg / time.Duration(workers)
	if est < floor {
		est = floor
	}
	const cap = 5 * time.Minute
	if est > cap {
		est = cap
	}
	return est
}

// ceilSeconds renders a duration as the integral seconds value an HTTP
// Retry-After header wants, rounding up so clients never come back
// early.
func ceilSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}
