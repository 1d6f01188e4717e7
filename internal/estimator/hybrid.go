package estimator

import (
	"context"
	"fmt"
	"sort"

	"qfe/internal/catalog"
	"qfe/internal/metrics"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// Hybrid implements the local-model pruning of Section 2.1.2: "in real
// applications, this number [of 2^n - 1 sub-schema models] is reduced by
// relying on System R formulas, where models are built exactly for those
// sub-schemata for which the assumptions from [25] do not hold."
//
// Training inspects each sub-schema's labeled queries: where the fallback
// estimator (typically the System-R style Independence baseline) already
// achieves the target q-error quantile, no model is built and queries for
// that sub-schema route to the fallback; everywhere else a local model is
// trained. The decision is query-feedback driven, following Larson et
// al. [15] whom the paper cites for when to (re)build.
type Hybrid struct {
	local    *Local
	fallback Estimator
	cfg      HybridConfig
	// modeled records which sub-schema keys carry a trained local model.
	modeled map[string]bool
}

// HybridConfig configures pruning.
type HybridConfig struct {
	// Local configures the models built for non-pruned sub-schemas.
	Local LocalConfig
	// MaxQuantileError is the pruning bar: a sub-schema is pruned when the
	// fallback's q-error at Quantile stays at or below this value on the
	// sub-schema's training queries.
	MaxQuantileError float64
	// Quantile is the inspected q-error quantile (default 0.9).
	Quantile float64
}

// NewHybrid builds the estimator skeleton. fallback must not be nil.
func NewHybrid(db *table.DB, cfg HybridConfig, fallback Estimator) (*Hybrid, error) {
	if fallback == nil {
		return nil, fmt.Errorf("estimator: Hybrid needs a fallback estimator")
	}
	if cfg.MaxQuantileError < 1 {
		return nil, fmt.Errorf("estimator: MaxQuantileError = %v, want >= 1", cfg.MaxQuantileError)
	}
	if cfg.Quantile == 0 {
		cfg.Quantile = 0.9
	}
	if cfg.Quantile < 0 || cfg.Quantile > 1 {
		return nil, fmt.Errorf("estimator: Quantile = %v, want in [0, 1]", cfg.Quantile)
	}
	loc, err := NewLocal(db, cfg.Local)
	if err != nil {
		return nil, err
	}
	return &Hybrid{local: loc, fallback: fallback, cfg: cfg, modeled: make(map[string]bool)}, nil
}

// Name implements Estimator.
func (h *Hybrid) Name() string {
	return fmt.Sprintf("%s pruned by %s", h.local.Name(), h.fallback.Name())
}

// Train prunes and fits. It returns how many sub-schemas kept a model and
// how many were pruned to the fallback.
func (h *Hybrid) Train(train workload.Set) (kept, pruned int, err error) {
	grouped := make(map[string]workload.Set)
	for _, lq := range train {
		grouped[catalog.SubSchemaKey(lq.Query.Tables)] = append(grouped[catalog.SubSchemaKey(lq.Query.Tables)], lq)
	}
	keys := make([]string, 0, len(grouped))
	for k := range grouped {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var modeledSet workload.Set
	for _, key := range keys {
		set := grouped[key]
		qerrs, err := Evaluate(h.fallback, set)
		if err != nil {
			return 0, 0, fmt.Errorf("estimator: probe fallback on %s: %w", key, err)
		}
		if metrics.Quantile(qerrs, h.cfg.Quantile) <= h.cfg.MaxQuantileError {
			pruned++
			continue // the System-R assumptions hold here: no model
		}
		kept++
		h.modeled[key] = true
		modeledSet = append(modeledSet, set...)
	}
	if len(modeledSet) > 0 {
		if err := h.local.Train(modeledSet); err != nil {
			return 0, 0, err
		}
	}
	return kept, pruned, nil
}

// Estimate implements Estimator: modeled sub-schemas use their local model,
// pruned ones the fallback.
func (h *Hybrid) Estimate(q *sqlparse.Query) (float64, error) {
	if h.modeled[catalog.SubSchemaKey(q.Tables)] {
		return h.local.Estimate(q)
	}
	return h.fallback.Estimate(q)
}

// EstimateCtx implements ContextEstimator: the local model's arithmetic is
// bounded (see Local.EstimateCtx), and the fallback gets the context when it
// takes one.
func (h *Hybrid) EstimateCtx(ctx context.Context, q *sqlparse.Query) (float64, error) {
	if h.modeled[catalog.SubSchemaKey(q.Tables)] {
		return h.local.EstimateCtx(ctx, q)
	}
	return EstimateWithContext(ctx, h.fallback, q)
}

// NumModels returns the number of trained local models (pruned sub-schemas
// carry none).
func (h *Hybrid) NumModels() int { return h.local.NumModels() }

// MemoryBytes sums the trained models' footprints — the quantity pruning
// reduces.
func (h *Hybrid) MemoryBytes() int { return h.local.MemoryBytes() }
