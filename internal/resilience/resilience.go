// Package resilience hardens the estimation pipeline for serving: it wraps
// any estimator.Estimator in deadlines, panic isolation and a
// graceful-degradation chain so that an estimate is *always* returned — a
// failing learned model degrades the answer's quality, never the system's
// availability.
//
// The degradation chain mirrors the paper's own framing of the learned
// estimator as one option among cheaper baselines; every binary serves the one
// cli.Chain builds (ext9 in EXPERIMENTS.md scores its stages one by one),
//
//	learned model → independence assumption → row-count heuristic
//
// where each stage is asked in order, on every request, and the first valid
// (finite, >= 1) estimate wins. A stage that fails is not tried again within
// the request — the estimators are deterministic in-process code, so the same
// call would fail the same way; the chain moves on, as it does past a stage
// that refuses the query (core.ErrUnsupported). What a stage did with one
// query decides nothing about the next: an estimator is a pure function of
// its query and a published model never changes, so a failure belongs to the
// query that caused it. Every stage runs on the caller's goroutine and is
// guarded by:
//
//   - a per-call deadline (a time.Time) and the caller's cancellation (a
//     context.Context), which the chain alone reads: it checks both before
//     each stage and, once either says stop, tries no further stage and
//     answers with the last resort. A stage is a plain estimator.Estimator
//     and never sees the deadline — an estimate is microseconds of bounded
//     arithmetic with nothing to wait on — so a stage that has started runs
//     to its return, and what it returns is its own doing, never the
//     deadline's;
//   - panic recovery, converting panics in model code into stage errors.
//
// The sibling package faultinject provides a seeded, deterministic
// fault-injecting wrapper used by the test suite to prove the chain degrades
// — never errors, never returns NaN/Inf/negative — under every injected
// failure mode.
package resilience

import (
	"context"
	"fmt"
	"math"
	"time"

	"qfe/internal/estimator"
	"qfe/internal/sqlparse"
)

// Stage is one link of the degradation chain.
type Stage struct {
	// Name identifies the stage in results; empty means the estimator's own
	// Name().
	Name string
	// Est is the wrapped estimator.
	Est estimator.Estimator
}

// Config tunes a Resilient estimator. The zero value is usable.
type Config struct {
	// Timeout is the per-call estimation budget EstimateDetailed applies when
	// the caller's context carries no deadline of its own. Zero means no
	// implicit deadline.
	Timeout time.Duration
	// LastResort produces the estimate when every stage fails or the
	// deadline is spent. It should be total (never error); RowCount is the
	// intended choice. Nil means a constant estimate of defaultEstimate.
	LastResort estimator.Estimator
}

const defaultEstimate = 1 // returned if even LastResort fails: the paper's minimum cardinality

// Resilient chains estimators with graceful degradation. It never returns an
// error or a non-finite estimate: the worst case is the last-resort
// heuristic.
type Resilient struct {
	cfg        Config
	stages     []Stage // each named
	lastResort estimator.Estimator
}

// NewResilient builds the degradation chain over stages, tried in order.
func NewResilient(cfg Config, stages ...Stage) *Resilient {
	r := &Resilient{cfg: cfg, lastResort: cfg.LastResort}
	if r.lastResort == nil {
		r.lastResort = Constant{Value: defaultEstimate}
	}
	for _, s := range stages {
		if s.Name == "" {
			s.Name = s.Est.Name()
		}
		r.stages = append(r.stages, s)
	}
	return r
}

// Name implements Estimator.
func (r *Resilient) Name() string {
	if len(r.stages) == 0 {
		return "resilient(" + r.lastResort.Name() + ")"
	}
	return "resilient(" + r.stages[0].Name + ")"
}

// StageError pairs a stage name with the error that made the chain move past
// it.
type StageError struct {
	Stage string
	Err   error
}

// Result is the full outcome of one resilient estimation.
type Result struct {
	// Estimate is always finite and >= 1.
	Estimate float64
	// Stage is the name of the stage (or last resort) that produced it.
	Stage string
	// Degraded is true when the first stage did not answer.
	Degraded bool
	// Errors lists, in chain order, why each stage asked before the answer
	// did not give it, and the stage the spent deadline stopped at.
	Errors []StageError
}

// Estimate implements Estimator (background context, so only the configured
// Timeout applies). The returned error is always nil: degradation replaces
// failure.
func (r *Resilient) Estimate(q *sqlparse.Query) (float64, error) {
	return r.EstimateDetailed(context.Background(), q).Estimate, nil
}

// EstimateDetailed is EstimateBy for a caller that holds a context: the
// deadline is the context's, else the configured Timeout from now, else none.
func (r *Resilient) EstimateDetailed(ctx context.Context, q *sqlparse.Query) Result {
	at, ok := ctx.Deadline()
	if !ok && r.cfg.Timeout > 0 {
		at = time.Now().Add(r.cfg.Timeout)
	}
	return r.EstimateBy(ctx, at, q)
}

// EstimateBy runs the chain and reports which stage answered and what failed
// along the way. Before each stage it reads ctx's cancellation and the clock
// against at (zero: no deadline); once either says stop, no further stage
// runs and the last resort answers. A stage that fails, refuses the query
// (core.ErrUnsupported), panics or returns an invalid value is passed over.
func (r *Resilient) EstimateBy(ctx context.Context, at time.Time, q *sqlparse.Query) Result {
	var res Result
	for i, s := range r.stages {
		err := ctx.Err()
		if err == nil && !at.IsZero() && !time.Now().Before(at) {
			err = context.DeadlineExceeded
		}
		if err != nil {
			// No stage may run; fall through to the last resort, which is
			// synchronous and cheap.
			res.Errors = append(res.Errors, StageError{s.Name, err})
			break
		}
		v, err := callGuarded(s.Name, s.Est, q)
		if err == nil && !validEstimate(v) {
			err = fmt.Errorf("resilience: stage %s returned invalid estimate %v", s.Name, v)
		}
		if err == nil {
			res.Estimate = max(v, 1)
			res.Stage = s.Name
			res.Degraded = i > 0
			return res
		}
		res.Errors = append(res.Errors, StageError{s.Name, err})
	}
	res.Estimate = r.lastResortEstimate(q)
	res.Stage = r.lastResort.Name()
	res.Degraded = len(r.stages) > 0
	return res
}

// callGuarded runs one stage call on the caller's goroutine, with a panic in
// model code converted into the stage's error. It costs neither a goroutine
// nor an allocation.
func callGuarded(name string, est estimator.Estimator, q *sqlparse.Query) (v float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			v, err = 0, fmt.Errorf("resilience: panic in stage %s: %v", name, p)
		}
	}()
	return est.Estimate(q)
}

// lastResortEstimate is total: panics and invalid values collapse to the
// configured default. It deliberately ignores the (possibly spent) deadline —
// the heuristic is synchronous table-statistics arithmetic.
func (r *Resilient) lastResortEstimate(q *sqlparse.Query) (v float64) {
	defer func() {
		if p := recover(); p != nil {
			v = defaultEstimate
		}
	}()
	v, err := r.lastResort.Estimate(q)
	if err != nil || !validEstimate(v) {
		return defaultEstimate
	}
	if v < 1 {
		v = 1
	}
	return v
}

// validEstimate reports whether v can be served: finite and non-negative.
// (Sub-1 values are clamped to 1 by the callers, matching the paper's
// minimum-cardinality convention.)
func validEstimate(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}
