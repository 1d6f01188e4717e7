// Package faultinject provides a seeded, deterministic fault-injecting
// estimator wrapper for testing the resilience layer. Every failure mode the
// serving stack must survive — errors, latency spikes, panics, NaN/Inf and
// negative results — can be injected with configured probabilities, and the
// whole fault sequence is a pure function of the seed, so tests that assert
// "the chain degraded exactly here" are reproducible.
package faultinject

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"qfe/internal/estimator"
	"qfe/internal/sqlparse"
)

// Config sets the per-call fault probabilities. The fault decision is a
// single uniform draw per call tested against the stacked rates, in the
// order panic, error, NaN, +Inf, negative — so PanicRate 0.1 and ErrorRate
// 0.1 mean 10% panics, 10% errors, 80% clean calls.
type Config struct {
	// Seed drives the deterministic fault stream.
	Seed int64
	// PanicRate is the probability a call panics.
	PanicRate float64
	// ErrorRate is the probability a call returns ErrInjected.
	ErrorRate float64
	// NaNRate is the probability a call returns NaN.
	NaNRate float64
	// InfRate is the probability a call returns +Inf.
	InfRate float64
	// NegativeRate is the probability a call returns -1.
	NegativeRate float64
	// Latency is slept before every call's fault is drawn.
	Latency time.Duration
}

// ErrInjected is the error returned by injected error faults.
var ErrInjected = fmt.Errorf("faultinject: injected error")

// Kind labels what a single call did.
type Kind int

const (
	// Clean: the call was passed through unharmed.
	Clean Kind = iota
	// Panicked: the call panicked.
	Panicked
	// Errored: the call returned ErrInjected.
	Errored
	// ReturnedNaN: the call returned math.NaN().
	ReturnedNaN
	// ReturnedInf: the call returned math.Inf(1).
	ReturnedInf
	// ReturnedNegative: the call returned -1.
	ReturnedNegative
)

// String renders the kind.
func (k Kind) String() string {
	switch k {
	case Clean:
		return "clean"
	case Panicked:
		return "panic"
	case Errored:
		return "error"
	case ReturnedNaN:
		return "nan"
	case ReturnedInf:
		return "inf"
	case ReturnedNegative:
		return "negative"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Counts tallies calls by outcome.
type Counts struct {
	Calls     int
	Clean     int
	Panics    int
	Errors    int
	NaNs      int
	Infs      int
	Negatives int
}

// Injector wraps an estimator with deterministic faults. It is safe for
// concurrent use; the fault stream is serialized under a mutex, so the
// sequence of fault kinds is seed-determined even under concurrency (which
// call gets which fault then depends on scheduling — single-goroutine tests
// get full determinism).
type Injector struct {
	inner estimator.Estimator
	cfg   Config // fixed at New

	mu     sync.Mutex
	rng    *rand.Rand
	counts Counts
}

// New wraps inner with the configured fault stream.
func New(inner estimator.Estimator, cfg Config) *Injector {
	return &Injector{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Name implements Estimator.
func (in *Injector) Name() string { return "faulty(" + in.inner.Name() + ")" }

// draw picks the next fault kind from the seeded stream and updates counts.
func (in *Injector) draw() Kind {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.counts.Calls++
	u := in.rng.Float64()
	k := Clean
	switch {
	case u < in.cfg.PanicRate:
		k = Panicked
	case u < in.cfg.PanicRate+in.cfg.ErrorRate:
		k = Errored
	case u < in.cfg.PanicRate+in.cfg.ErrorRate+in.cfg.NaNRate:
		k = ReturnedNaN
	case u < in.cfg.PanicRate+in.cfg.ErrorRate+in.cfg.NaNRate+in.cfg.InfRate:
		k = ReturnedInf
	case u < in.cfg.PanicRate+in.cfg.ErrorRate+in.cfg.NaNRate+in.cfg.InfRate+in.cfg.NegativeRate:
		k = ReturnedNegative
	}
	switch k {
	case Clean:
		in.counts.Clean++
	case Panicked:
		in.counts.Panics++
	case Errored:
		in.counts.Errors++
	case ReturnedNaN:
		in.counts.NaNs++
	case ReturnedInf:
		in.counts.Infs++
	case ReturnedNegative:
		in.counts.Negatives++
	}
	return k
}

// Estimate implements Estimator: latency is injected first, then the drawn
// fault fires, then — for clean calls — the wrapped estimator runs.
func (in *Injector) Estimate(q *sqlparse.Query) (float64, error) {
	time.Sleep(in.cfg.Latency)
	switch in.draw() {
	case Panicked:
		panic("faultinject: injected panic")
	case Errored:
		return 0, ErrInjected
	case ReturnedNaN:
		return math.NaN(), nil
	case ReturnedInf:
		return math.Inf(1), nil
	case ReturnedNegative:
		return -1, nil
	}
	return in.inner.Estimate(q)
}

// Counts snapshots the outcome tallies.
func (in *Injector) Counts() Counts {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts
}
