// Package resilience hardens the estimation pipeline for serving: it wraps
// any estimator.Estimator in deadlines, panic isolation, a circuit breaker,
// and a graceful-degradation chain so that an estimate is *always*
// returned — a failing learned model degrades the answer's quality, never
// the system's availability.
//
// The degradation chain mirrors the paper's own framing of the learned
// estimator as one option among cheaper baselines; every binary serves the one
// cli.Chain builds (ext9 in EXPERIMENTS.md scores its stages one by one),
//
//	learned model → independence assumption → row-count heuristic
//
// where each stage is tried in order and the first valid (finite, >= 1)
// estimate wins. A stage that fails is not tried again within the request —
// the estimators are deterministic in-process code, so the same call would
// fail the same way; the chain moves on, as it does past a stage that refuses
// the query (core.ErrUnsupported), which its breaker does not count. Every
// stage is guarded by:
//
//   - a per-call deadline (context.Context), enforced even when the
//     underlying estimator ignores contexts: an estimator.ContextEstimator
//     runs on the caller's goroutine and is trusted to return at the
//     deadline, any other estimator runs on a goroutine that is abandoned
//     at it;
//   - panic recovery, converting panics in model code into stage errors;
//   - a circuit breaker with half-open probing, so a persistently failing
//     stage stops being invoked on the hot path and is re-admitted only
//     after it proves healthy again.
//
// The sibling package faultinject provides a seeded, deterministic
// fault-injecting wrapper used by the test suite to prove the chain degrades
// — never errors, never returns NaN/Inf/negative — under every injected
// failure mode.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"qfe/internal/core"
	"qfe/internal/estimator"
	"qfe/internal/sqlparse"
)

// ErrBreakerOpen is recorded in Result.Errors when a stage was skipped
// because its circuit breaker was open.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// Stage is one link of the degradation chain.
type Stage struct {
	// Name identifies the stage in results and stats; empty means the
	// estimator's own Name().
	Name string
	// Est is the wrapped estimator.
	Est estimator.Estimator
}

// Config tunes a Resilient estimator. The zero value is usable.
type Config struct {
	// Timeout is the per-call estimation budget applied when the caller's
	// context carries no deadline of its own, as a WithDeadline context.
	// Zero means no implicit deadline.
	Timeout time.Duration
	// Breaker configures every stage's circuit breaker.
	Breaker BreakerConfig
	// LastResort produces the estimate when every stage fails or the
	// deadline is spent. It should be total (never error); RowCount is the
	// intended choice. Nil means a constant estimate of DefaultEstimate.
	LastResort estimator.Estimator
	// DefaultEstimate is returned if even LastResort fails. Default 1, the
	// paper's minimum cardinality.
	DefaultEstimate float64
}

// stageState is a Stage plus its runtime guards and counters.
type stageState struct {
	name    string
	est     estimator.Estimator
	breaker *Breaker

	mu      sync.Mutex
	served  int // calls this stage answered
	failed  int // calls this stage failed
	refused int // calls whose query this stage does not encode
	skipped int // calls skipped because the breaker was open
}

// count adds one to the counter n of s.
func (s *stageState) count(n *int) {
	s.mu.Lock()
	*n++
	s.mu.Unlock()
}

// StageStats is a snapshot of one stage's counters.
type StageStats struct {
	Name    string
	State   BreakerState
	Served  int
	Failed  int
	Refused int
	Skipped int
}

// Resilient chains estimators with graceful degradation. It implements
// estimator.ContextEstimator and never returns an error or a non-finite
// estimate: the worst case is the last-resort heuristic.
type Resilient struct {
	cfg        Config
	stages     []*stageState
	lastResort estimator.Estimator
}

// NewResilient builds the degradation chain over stages, tried in order.
func NewResilient(cfg Config, stages ...Stage) *Resilient {
	if cfg.DefaultEstimate < 1 || math.IsNaN(cfg.DefaultEstimate) || math.IsInf(cfg.DefaultEstimate, 0) {
		cfg.DefaultEstimate = 1
	}
	r := &Resilient{cfg: cfg, lastResort: cfg.LastResort}
	if r.lastResort == nil {
		r.lastResort = Constant{Value: cfg.DefaultEstimate}
	}
	for _, s := range stages {
		name := s.Name
		if name == "" {
			name = s.Est.Name()
		}
		r.stages = append(r.stages, &stageState{name: name, est: s.Est, breaker: NewBreaker(cfg.Breaker)})
	}
	return r
}

// Name implements Estimator.
func (r *Resilient) Name() string {
	if len(r.stages) == 0 {
		return "resilient(" + r.lastResort.Name() + ")"
	}
	return "resilient(" + r.stages[0].name + ")"
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
	// Errors lists, in chain order, the failures and skips encountered
	// before the answer.
	Errors []StageError
}

// Estimate implements Estimator (background context, so only the configured
// Timeout applies). The returned error is always nil.
func (r *Resilient) Estimate(q *sqlparse.Query) (float64, error) {
	return r.EstimateCtx(context.Background(), q)
}

// EstimateCtx implements ContextEstimator. The returned error is always nil:
// degradation replaces failure.
func (r *Resilient) EstimateCtx(ctx context.Context, q *sqlparse.Query) (float64, error) {
	res := r.EstimateDetailed(ctx, q)
	return res.Estimate, nil
}

// EstimateDetailed runs the chain and reports which stage answered and what
// failed along the way.
func (r *Resilient) EstimateDetailed(ctx context.Context, q *sqlparse.Query) Result {
	if r.cfg.Timeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = WithDeadline(ctx, time.Now().Add(r.cfg.Timeout))
			defer cancel()
		}
	}
	var res Result
	for i, s := range r.stages {
		if ctx.Err() != nil {
			// Deadline spent: no stage may run; fall through to the last
			// resort, which is synchronous and cheap.
			res.Errors = append(res.Errors, StageError{s.name, ctx.Err()})
			break
		}
		if !s.breaker.Allow() {
			s.count(&s.skipped)
			res.Errors = append(res.Errors, StageError{s.name, ErrBreakerOpen})
			continue
		}
		v, err := r.attempt(ctx, s, q)
		if err == nil {
			res.Estimate = v
			res.Stage = s.name
			res.Degraded = i > 0
			return res
		}
		res.Errors = append(res.Errors, StageError{s.name, err})
	}
	res.Estimate = r.lastResortEstimate(q)
	res.Stage = r.lastResort.Name()
	res.Degraded = len(r.stages) > 0
	return res
}

// attempt runs one stage once, counts the call and reports exactly one breaker
// outcome, pairing the Allow that admitted the call: Success on a valid
// estimate, Release on a refusal (the query's shape decided it, not the
// stage's health), Failure on any other error, a panic, a spent deadline or an
// invalid value.
func (r *Resilient) attempt(ctx context.Context, s *stageState, q *sqlparse.Query) (float64, error) {
	v, err := callGuarded(ctx, s.name, s.est, q)
	if err == nil && !validEstimate(v) {
		err = fmt.Errorf("resilience: stage %s returned invalid estimate %v", s.name, v)
	}
	switch {
	case err == nil:
		s.breaker.Success()
		s.count(&s.served)
		return max(v, 1), nil
	case errors.Is(err, core.ErrUnsupported):
		s.breaker.Release()
		s.count(&s.refused)
	default:
		s.breaker.Failure()
		s.count(&s.failed)
	}
	return 0, err
}

// callGuarded runs one stage call with panic isolation and deadline
// enforcement. The estimator's type decides how.
//
// A ContextEstimator has promised to return ctx.Err() promptly, so it runs on
// the caller's goroutine under recover: the deadline is checked before the
// call and the stage's own return is final. This is the path of every stage
// the daemon configures, and it costs neither a goroutine nor an allocation.
//
// A plain Estimator is uninterruptible. It runs in a goroutine of its own so
// the deadline holds even while it is stuck; on timeout the goroutine is
// abandoned (its eventual result goes to a buffered channel and is dropped).
// Its select on ctx.Done is what arms a WithDeadline context's timer; the
// inline path only reads ctx.Err and arms none.
func callGuarded(ctx context.Context, name string, est estimator.Estimator, q *sqlparse.Query) (float64, error) {
	if ce, ok := est.(estimator.ContextEstimator); ok {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return callInline(ctx, name, ce, q)
	}
	type outcome struct {
		v   float64
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: stagePanic(name, p)}
			}
		}()
		v, err := estimator.EstimateWithContext(ctx, est, q)
		ch <- outcome{v: v, err: err}
	}()
	select {
	case <-ctx.Done():
		return 0, ctx.Err()
	case o := <-ch:
		return o.v, o.err
	}
}

// callInline is the ContextEstimator half of callGuarded: the call, with a
// panic in model code converted into the stage's error.
func callInline(ctx context.Context, name string, est estimator.ContextEstimator, q *sqlparse.Query) (v float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			v, err = 0, stagePanic(name, p)
		}
	}()
	return est.EstimateCtx(ctx, q)
}

func stagePanic(name string, p any) error {
	return fmt.Errorf("resilience: panic in stage %s: %v", name, p)
}

// lastResortEstimate is total: panics and invalid values collapse to the
// configured default. It deliberately ignores the (possibly spent) deadline —
// the heuristic is synchronous table-statistics arithmetic.
func (r *Resilient) lastResortEstimate(q *sqlparse.Query) (v float64) {
	defer func() {
		if p := recover(); p != nil {
			v = r.cfg.DefaultEstimate
		}
	}()
	v, err := r.lastResort.Estimate(q)
	if err != nil || !validEstimate(v) {
		return r.cfg.DefaultEstimate
	}
	if v < 1 {
		v = 1
	}
	return v
}

// Stats snapshots every stage's counters and breaker state, in chain order.
func (r *Resilient) Stats() []StageStats {
	out := make([]StageStats, len(r.stages))
	for i, s := range r.stages {
		s.mu.Lock()
		out[i] = StageStats{
			Name:    s.name,
			State:   s.breaker.State(),
			Served:  s.served,
			Failed:  s.failed,
			Refused: s.refused,
			Skipped: s.skipped,
		}
		s.mu.Unlock()
	}
	return out
}

// Breaker exposes stage i's circuit breaker (chain order) for tests and
// operational tooling.
func (r *Resilient) Breaker(i int) *Breaker { return r.stages[i].breaker }

// validEstimate reports whether v can be served: finite and non-negative.
// (Sub-1 values are clamped to 1 by the callers, matching the paper's
// minimum-cardinality convention.)
func validEstimate(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}
