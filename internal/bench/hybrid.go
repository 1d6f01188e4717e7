package bench

import (
	"fmt"
	"sort"

	"qfe/internal/catalog"
	"qfe/internal/estimator"
	"qfe/internal/metrics"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// hybrid implements the local-model pruning of Section 2.1.2 for ext8: "in
// real applications, this number [of 2^n - 1 sub-schema models] is reduced by
// relying on System R formulas, where models are built exactly for those
// sub-schemata for which the assumptions from [25] do not hold."
//
// Training inspects each sub-schema's labeled queries: where the fallback
// estimator (typically the System-R style Independence baseline) already
// achieves the target q-error quantile, no model is built and queries for
// that sub-schema route to the fallback; everywhere else a local model is
// trained. The decision is query-feedback driven, following Larson et
// al. [15] whom the paper cites for when to (re)build.
type hybrid struct {
	local    *estimator.Local
	fallback estimator.Estimator
	cfg      hybridConfig
	// modeled records which sub-schema keys carry a trained local model.
	modeled map[string]bool
}

// hybridConfig configures pruning.
type hybridConfig struct {
	// Local configures the models built for non-pruned sub-schemas.
	Local estimator.LocalConfig
	// MaxQuantileError is the pruning bar: a sub-schema is pruned when the
	// fallback's q-error at Quantile stays at or below this value on the
	// sub-schema's training queries.
	MaxQuantileError float64
	// Quantile is the inspected q-error quantile (default 0.9).
	Quantile float64
}

// newHybrid builds the estimator skeleton. fallback must not be nil.
func newHybrid(db *table.DB, cfg hybridConfig, fallback estimator.Estimator) (*hybrid, error) {
	if fallback == nil {
		return nil, fmt.Errorf("bench: hybrid needs a fallback estimator")
	}
	if cfg.MaxQuantileError < 1 {
		return nil, fmt.Errorf("bench: MaxQuantileError = %v, want >= 1", cfg.MaxQuantileError)
	}
	if cfg.Quantile == 0 {
		cfg.Quantile = 0.9
	}
	if cfg.Quantile < 0 || cfg.Quantile > 1 {
		return nil, fmt.Errorf("bench: Quantile = %v, want in [0, 1]", cfg.Quantile)
	}
	loc, err := estimator.NewLocal(db, cfg.Local)
	if err != nil {
		return nil, err
	}
	return &hybrid{local: loc, fallback: fallback, cfg: cfg, modeled: make(map[string]bool)}, nil
}

// Name implements estimator.Estimator.
func (h *hybrid) Name() string {
	return fmt.Sprintf("%s pruned by %s", h.local.Name(), h.fallback.Name())
}

// Train prunes and fits. It returns how many sub-schemas kept a model and
// how many were pruned to the fallback.
func (h *hybrid) Train(train workload.Set) (kept, pruned int, err error) {
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
		qerrs, err := estimator.Evaluate(h.fallback, set)
		if err != nil {
			return 0, 0, fmt.Errorf("bench: probe fallback on %s: %w", key, err)
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

// Estimate implements estimator.Estimator: modeled sub-schemas use their
// local model, pruned ones the fallback.
func (h *hybrid) Estimate(q *sqlparse.Query) (float64, error) {
	if h.modeled[catalog.SubSchemaKey(q.Tables)] {
		return h.local.Estimate(q)
	}
	return h.fallback.Estimate(q)
}

// NumModels returns the number of trained local models (pruned sub-schemas
// carry none).
func (h *hybrid) NumModels() int { return h.local.NumModels() }

// MemoryBytes sums the trained models' footprints — the quantity pruning
// reduces.
func (h *hybrid) MemoryBytes() int { return h.local.MemoryBytes() }
