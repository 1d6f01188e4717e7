package resilience

import (
	"fmt"
	"sync"
	"time"
)

// BreakerState is the classic three-state circuit-breaker automaton.
type BreakerState int

const (
	// StateClosed: calls flow normally; consecutive failures are counted.
	StateClosed BreakerState = iota
	// StateOpen: calls are rejected without invoking the protected stage.
	StateOpen
	// StateHalfOpen: after the cooldown, a limited number of probe calls
	// are let through to test whether the stage has recovered.
	StateHalfOpen
)

// String renders the state name.
func (s BreakerState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// BreakerConfig tunes a circuit breaker. The zero value is usable: defaults
// are filled in by NewBreaker.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that opens the
	// breaker. Default 5.
	FailureThreshold int
	// Cooldown is how long the breaker stays open before transitioning to
	// half-open. Default 30s.
	Cooldown time.Duration
	// HalfOpenProbes is the number of consecutive probe successes required
	// to close a half-open breaker. Default 2.
	HalfOpenProbes int
	// Clock overrides time.Now for deterministic tests.
	Clock func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 2
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Breaker is a mutex-guarded circuit breaker. A stage wrapped by Resilient
// gets one; the hot path asks Allow before each call and reports the outcome
// with Success or Failure.
type Breaker struct {
	cfg BreakerConfig

	mu         sync.Mutex
	state      BreakerState
	failures   int // consecutive failures while closed
	successes  int // consecutive probe successes while half-open
	openedAt   time.Time
	probeInUse bool // a half-open probe is in flight
}

// NewBreaker builds a breaker with cfg (zero fields take defaults).
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a call may proceed. In the open state it returns
// false until the cooldown has elapsed, at which point the breaker moves to
// half-open and admits a single in-flight probe at a time.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return true
	case StateOpen:
		if b.cfg.Clock().Sub(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.state = StateHalfOpen
		b.successes = 0
		b.probeInUse = true
		return true
	case StateHalfOpen:
		if b.probeInUse {
			return false
		}
		b.probeInUse = true
		return true
	}
	return false
}

// Success reports a successful call.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		b.failures = 0
	case StateHalfOpen:
		b.probeInUse = false
		b.successes++
		if b.successes >= b.cfg.HalfOpenProbes {
			b.state = StateClosed
			b.failures = 0
		}
	}
}

// Failure reports a failed call. A failure while half-open re-opens the
// breaker and restarts the cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.state = StateOpen
			b.openedAt = b.cfg.Clock()
		}
	case StateHalfOpen:
		b.probeInUse = false
		b.state = StateOpen
		b.openedAt = b.cfg.Clock()
	}
}

// State returns the current state (open breakers past their cooldown still
// report open until the next Allow promotes them to half-open).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
