package serve

import (
	"context"
	"time"

	"qfe/internal/estimator"
	"qfe/internal/parallel"
	"qfe/internal/resilience"
	"qfe/internal/sqlparse"
)

// Every query is estimated by one function, estimateOne, on the goroutine
// that asked: a single-query request calls it on its HTTP request goroutine,
// and a client batch fans it out over one goroutine per P serving it
// (internal/parallel, the same worker discipline as the labeling and training
// pools). There is no queue, timer or background goroutine between a request
// and its model.

// BatcherConfig configured request coalescing, which was removed; nothing
// reads it.
type BatcherConfig struct {
	// Deprecated: ignored; coalescing was removed. Kept only so cmd/bench compiles — delete with the next benchmark change.
	MaxBatch int
	// Deprecated: ignored; coalescing was removed. Kept only so cmd/bench compiles — delete with the next benchmark change.
	MaxDelay time.Duration
}

// EstResult is one query's outcome.
type EstResult struct {
	Estimate float64
	// Stage and Degraded carry through from the resilience chain when the
	// estimator is a *resilience.Resilient; otherwise Stage is empty.
	Stage    string
	Degraded bool
	Err      error
}

// estimateOne dispatches one query, preserving the resilience chain's
// detailed outcome when available. The chain reads ctx's cancellation and the
// deadline at (zero: none) itself; a bare estimator is not called once either
// is spent.
func estimateOne(ctx context.Context, at time.Time, est estimator.Estimator, q *sqlparse.Query) EstResult {
	if res, ok := est.(*resilience.Resilient); ok {
		d := res.EstimateBy(ctx, at, q)
		return EstResult{Estimate: d.Estimate, Stage: d.Stage, Degraded: d.Degraded}
	}
	if err := ctx.Err(); err != nil {
		return EstResult{Err: err}
	}
	if !at.IsZero() && !time.Now().Before(at) {
		return EstResult{Err: context.DeadlineExceeded}
	}
	v, err := est.Estimate(q)
	return EstResult{Estimate: v, Err: err}
}

// doBatch estimates a client-supplied batch — estimateOne per query, over
// one goroutine per P serving it, out[i] answering qs[i] — and counts it
// in /metrics (batches_total, batched_queries_total).
func (s *Server) doBatch(ctx context.Context, at time.Time, est estimator.Estimator, qs []*sqlparse.Query, out []EstResult) {
	if len(qs) == 0 {
		return
	}
	s.metrics.observeBatch(len(qs))
	parallel.Do(len(qs), parallel.Workers(0), func(i int) {
		out[i] = estimateOne(ctx, at, est, qs[i])
	})
}
