// Package estimator assembles cardinality estimators from the pieces of
// this reproduction: the QFTs of internal/core, the ML models of
// internal/ml, and the non-ML baselines the paper compares against in
// Section 5.2 (Postgres-style independence assumption, Bernoulli sampling,
// and the true-cardinality oracle).
//
// The learned estimator is the local-model deployment of Section 2.1.2: one
// model per sub-schema (base table or join result), routed by the query's
// table set. The global models the paper compares against (a regressor over
// the concatenated per-table encoding plus table bit-vector, and MSCN) are
// experiment baselines, built in internal/bench over this package's
// exports.
//
// Learned estimators regress on log2-transformed cardinalities (Log2Label,
// the standard choice for q-error training; the harness's abl4 measures raw
// labels against it).
//
// An Estimator takes no context: a served estimate is featurization and one
// forest walk, microseconds of bounded arithmetic with nothing to wait on. A
// request's deadline is read by the serving chain that calls it
// (internal/resilience), before each stage, and by nothing here.
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

// RefuseGroupBy is the serving edge's answer to a grouped query (the daemon's
// parse step, cardest -query): a GROUP BY query's cardinality is its number
// of groups, every Estimator here is trained on row counts, and answering
// with the estimate of the WHERE alone would be a silently wrong number. The
// group-count featurization of the paper's Section 6 (bench.WithGroupBy) has
// a model only in the experiment harness (ext6).
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

// Log2Label is the regression target of a cardinality: log2(card + 1). The
// log2 transform compresses the heavy-tailed cardinality distribution so a
// squared-error loss approximates a q-error objective. Every model this
// package trains, and the harness's global models, regress on it.
func Log2Label(card float64) float64 { return math.Log2(card + 1) }

// FromLog2Label inverts Log2Label into an estimate of at least 1 (NaN reads
// as 1), capping wild extrapolations at 2^62.
func FromLog2Label(pred float64) float64 {
	if card := math.Exp2(min(pred, 62)) - 1; card >= 1 {
		return card
	}
	return 1
}
