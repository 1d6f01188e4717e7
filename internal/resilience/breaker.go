package resilience

import (
	"fmt"
	"sync"
	"time"

	"qfe/internal/clock"
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

// The breaker as shipped: it opens after failureThreshold consecutive
// failures, stays open for cooldown, then admits one probe at a time and closes
// after halfOpenProbes consecutive probe successes.
const (
	failureThreshold = 5
	cooldown         = 30 * time.Second
	halfOpenProbes   = 2
)

// Breaker is a mutex-guarded circuit breaker. A stage wrapped by Resilient
// gets one; the hot path asks Allow before each call and reports the outcome
// with Success or Failure.
type Breaker struct {
	clk clock.Clock // times the cooldown

	mu         sync.Mutex
	state      BreakerState
	failures   int // consecutive failures while closed
	successes  int // consecutive probe successes while half-open
	openedAt   time.Time
	probeInUse bool // a half-open probe is in flight
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
		if b.clk.Now().Sub(b.openedAt) < cooldown {
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
		if b.successes >= halfOpenProbes {
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
		if b.failures >= failureThreshold {
			b.state = StateOpen
			b.openedAt = b.clk.Now()
		}
	case StateHalfOpen:
		b.probeInUse = false
		b.state = StateOpen
		b.openedAt = b.clk.Now()
	}
}

// Release reports a call without an outcome (the stage refused the query): it
// counts nothing and frees the half-open probe slot the call may have held.
func (b *Breaker) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probeInUse = false
}

// State returns the current state (open breakers past their cooldown still
// report open until the next Allow promotes them to half-open).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
