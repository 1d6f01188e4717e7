package serve

import (
	"context"
	"time"

	"qfe/internal/parallel"
	"qfe/internal/resilience"
	"qfe/internal/sqlparse"
)

// BatcherConfig configured request coalescing, which was removed; nothing
// reads it.
type BatcherConfig struct {
	// Deprecated: ignored; coalescing was removed. Kept only so cmd/bench compiles — delete with the next benchmark change.
	MaxBatch int
	// Deprecated: ignored; coalescing was removed. Kept only so cmd/bench compiles — delete with the next benchmark change.
	MaxDelay time.Duration
}

// EstResult is one query's outcome, as the resilience chain gave it: an
// estimate that is always finite and >= 1, the stage that gave it, and
// whether that stage was a fallback.
type EstResult struct {
	Estimate float64
	Stage    string
	Degraded bool
}

// estimate asks the chain for q's estimate. It reads ctx's cancellation and
// the deadline at (zero: none) itself, and answers from its last resort once
// either is spent.
func estimate(ctx context.Context, at time.Time, est *resilience.Resilient, q *sqlparse.Query) EstResult {
	d := est.EstimateBy(ctx, at, q)
	return EstResult{Estimate: d.Estimate, Stage: d.Stage, Degraded: d.Degraded}
}

// doBatch estimates qs, out[i] answering qs[i]: over one goroutine per P
// serving them (internal/parallel, the labeling and training pools'
// discipline), or inline on the calling goroutine when there is one query or
// one P — a branch that builds no closure, so a single's miss costs the pool
// nothing. No queue, timer or background goroutine stands between a request
// and its model.
func (s *Server) doBatch(ctx context.Context, at time.Time, est *resilience.Resilient, qs []*sqlparse.Query, out []EstResult) {
	if workers := parallel.Workers(0); len(qs) > 1 && workers > 1 {
		parallel.Do(len(qs), workers, func(i int) {
			out[i] = estimate(ctx, at, est, qs[i])
		})
		return
	}
	for i, q := range qs {
		out[i] = estimate(ctx, at, est, q)
	}
}
