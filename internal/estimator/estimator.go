// Package estimator assembles cardinality estimators from the pieces of
// this reproduction: the QFTs of internal/core, the ML models of
// internal/ml, and the non-ML baselines the paper compares against in
// Section 5.2 (Postgres-style independence assumption, Bernoulli sampling,
// and the true-cardinality oracle).
//
// The package implements both deployment styles of Section 2.1.2:
//
//   - local models — one estimator per sub-schema (base table or join
//     result), routed by the query's table set;
//   - global models — a single estimator for all sub-schemas, either a
//     plain regressor over the concatenated per-table encoding plus table
//     bit-vector, or the MSCN set architecture.
//
// All learned estimators regress on log2-transformed cardinalities (the
// standard choice for q-error training; the raw-label ablation is available
// via Config.RawLabels).
package estimator

import (
	"context"
	"fmt"
	"math"
	"strings"

	"qfe/internal/metrics"
	"qfe/internal/sqlparse"
	"qfe/internal/workload"
)

// Estimator is anything that can estimate a COUNT(*) query's result
// cardinality. Estimates are always >= 1, matching the paper's evaluation
// protocol.
type Estimator interface {
	// Name identifies the estimator in reports (e.g. "GB + conjunctive").
	Name() string
	// Estimate returns the estimated result cardinality of q.
	Estimate(q *sqlparse.Query) (float64, error)
}

// ContextEstimator is an Estimator that additionally honors context
// cancellation and deadlines. Estimators whose per-call work is non-trivial
// (exact execution, row sampling, deep model inference) implement it so a
// serving layer can bound estimation latency; cheap estimators need not.
type ContextEstimator interface {
	Estimator
	// EstimateCtx is Estimate under a context: it returns ctx.Err() promptly
	// once the context is cancelled or its deadline passes.
	EstimateCtx(ctx context.Context, q *sqlparse.Query) (float64, error)
}

// RefuseGroupBy is the serving edge's answer to a grouped query (the daemon's
// parse step, cardest -query): a GROUP BY query's cardinality is its number
// of groups, every Estimator here is trained on row counts, and answering
// with the estimate of the WHERE alone would be a silently wrong number. The
// group-count featurization of the paper's Section 6 (core.WithGroupBy) has a
// model only in the experiment harness (ext6).
func RefuseGroupBy(q *sqlparse.Query) error {
	if len(q.GroupBy) == 0 {
		return nil
	}
	return fmt.Errorf("GROUP BY %s: no served model estimates group counts (drop the GROUP BY to estimate the rows it groups)",
		strings.Join(q.GroupBy, ", "))
}

// BatchEstimator was the batch form of an Estimator.
//
// Deprecated: no implementer; kept only so cmd/bench compiles — delete with
// the next benchmark change.
type BatchEstimator interface {
	Estimator
	EstimateBatch(ctx context.Context, qs []*sqlparse.Query) (ests []float64, errs []error)
}

// EstimateWithContext estimates q with est under ctx: estimators that
// implement ContextEstimator get the context threaded through; for plain
// estimators the context is checked before the (uninterruptible) call. It is
// the single dispatch point the engine and serving layers use, so adding
// EstimateCtx to an estimator automatically makes it deadline-aware
// everywhere.
func EstimateWithContext(ctx context.Context, est Estimator, q *sqlparse.Query) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if ce, ok := est.(ContextEstimator); ok {
		return ce.EstimateCtx(ctx, q)
	}
	return est.Estimate(q)
}

// Evaluate runs the estimator over a labeled query set and returns the
// per-query q-errors in set order.
func Evaluate(est Estimator, set workload.Set) ([]float64, error) {
	out := make([]float64, len(set))
	for i, l := range set {
		e, err := est.Estimate(l.Query)
		if err != nil {
			return nil, fmt.Errorf("estimator %s: query %d (%s): %w", est.Name(), i, l.Query, err)
		}
		out[i] = metrics.QError(float64(l.Card), e)
	}
	return out, nil
}

// Summarize evaluates and reduces to the mean/median/99%/max summary used in
// the paper's tables.
func Summarize(est Estimator, set workload.Set) (metrics.Summary, error) {
	qerrs, err := Evaluate(est, set)
	if err != nil {
		return metrics.Summary{}, err
	}
	return metrics.Summarize(qerrs), nil
}

// labelTransform maps cardinalities to regression targets and back. The
// log2 transform compresses the heavy-tailed cardinality distribution so a
// squared-error loss approximates a q-error objective.
type labelTransform struct {
	raw bool
}

func (t labelTransform) forward(card float64) float64 {
	if t.raw {
		return card
	}
	return math.Log2(card + 1)
}

func (t labelTransform) inverse(pred float64) float64 {
	var card float64
	if t.raw {
		card = pred
	} else {
		// Guard against overflow on wild extrapolations.
		if pred > 62 {
			pred = 62
		}
		card = math.Exp2(pred) - 1
	}
	if card < 1 || math.IsNaN(card) {
		return 1
	}
	return card
}

// transformAll applies the forward transform to a label slice.
func (t labelTransform) transformAll(cards []float64) []float64 {
	out := make([]float64, len(cards))
	for i, c := range cards {
		out[i] = t.forward(c)
	}
	return out
}
