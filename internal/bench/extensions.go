package bench

import (
	"fmt"
	"math"

	"qfe/internal/bench/linreg"
	"qfe/internal/bench/nn"
	"qfe/internal/core"
	"qfe/internal/estimator"
	"qfe/internal/table"
)

// This file hosts the paper's sketched-but-unevaluated extensions, made
// runnable: the simpler-models exclusion of Section 2.2 and the
// attribute-specific partition budget of Section 3.2.

// ExtensionModelZoo reproduces the Section 2.2 exclusion: linear regression
// ("simpler models") against GB and NN under the same QFT. The paper
// reports the simpler models' "estimates are worse by a significant
// factor"; the report shows by how much here.
func ExtensionModelZoo(env *Env) (*Report, error) {
	r := &Report{ID: "ext1", Title: "Simpler models (Section 2.2 exclusion): LR vs NN vs GB"}
	train, test, err := env.ConjWorkload()
	if err != nil {
		return nil, err
	}
	for _, model := range []string{"GB", "NN", "LR"} {
		loc, err := env.trainLocal("conjunctive", model, env.coreOptions(), train)
		if err != nil {
			return nil, fmt.Errorf("ext1 %s: %w", model, err)
		}
		sum, err := estimator.Summarize(loc, test)
		if err != nil {
			return nil, err
		}
		r.Lines = append(r.Lines, summaryRow(model+" + conjunctive", sum))
	}
	r.Printf("(the paper excluded the simpler models for exactly this gap)")
	return r, nil
}

// ExtensionAdaptiveEntries evaluates the Section 3.2 extension of an
// attribute-specific number of partitions: a log-distinct-weighted entry
// budget against the uniform per-attribute n, at equal total feature-vector
// size.
func ExtensionAdaptiveEntries(env *Env) (*Report, error) {
	r := &Report{ID: "ext2", Title: "Attribute-specific n (Section 3.2 extension) vs uniform n"}
	train, test, err := env.ConjWorkload()
	if err != nil {
		return nil, err
	}
	forest, err := env.Forest()
	if err != nil {
		return nil, err
	}
	opts := env.coreOptions()

	uniform := core.NewTableMeta(forest, opts.MaxEntriesPerAttr)
	budget := 0
	for _, a := range uniform.Attrs {
		budget += a.NEntries
	}
	adaptive, err := adaptiveMeta(forest, budget, 2)
	if err != nil {
		return nil, err
	}
	adaptiveEntries := 0
	for _, a := range adaptive.Attrs {
		adaptiveEntries += a.NEntries
	}
	r.Printf("entry budget: uniform=%d adaptive=%d (max n per attr: uniform=%d, adaptive=%d)",
		budget, adaptiveEntries, opts.MaxEntriesPerAttr, maxEntries(adaptive))

	for _, variant := range []struct {
		label string
		meta  *core.TableMeta
	}{
		{"uniform n", uniform},
		{"adaptive n (log-distinct)", adaptive},
	} {
		f := core.NewConjunctive(variant.meta, opts)
		sum, err := trainEvalCustom(f.Featurize, env.gbConfig(), log2Labels, train, test)
		if err != nil {
			return nil, err
		}
		r.Lines = append(r.Lines, summaryRow(variant.label, sum))
	}
	return r, nil
}

// adaptiveMeta derives featurization metadata with an attribute-specific
// number of partitions, the extension Section 3.2 sketches ("it is easy to
// extend our approach to choose an attribute-specific n"). A total
// per-table entry budget is distributed over the attributes proportionally
// to the logarithm of their distinct counts: attributes with more distinct
// values (where uniform partitions lose more information) receive more
// entries, while binary indicators get exactly their domain size. Every
// attribute receives at least minEntries (clamped to its domain size). The
// partitions stay uniform; only their number varies.
func adaptiveMeta(t *table.Table, budget, minEntries int) (*core.TableMeta, error) {
	cols := t.Columns()
	weights := make([]float64, len(cols))
	var totalWeight float64
	for i, col := range cols {
		// log2(distinct)+1 grows slowly, so wide attributes gain entries
		// without starving the rest.
		weights[i] = max(math.Log2(float64(col.Distinct()))+1, 1)
		totalWeight += weights[i]
	}
	spec := core.MetaSpec{Name: t.Name}
	for i, col := range cols {
		a := core.AttrMeta{Name: col.Name, Min: col.Min(), Max: col.Max()}
		a.NEntries = max(int(float64(budget)*weights[i]/totalWeight), minEntries, 1)
		if d := a.DomainSize(); d < int64(a.NEntries) {
			a.NEntries = int(d)
		}
		spec.Attrs = append(spec.Attrs, a)
	}
	meta, err := core.NewTableMetaFromSpec(spec)
	if err != nil {
		return nil, err
	}
	meta.MapColumns(t)
	return meta, nil
}

// linRegRegressor adapts linreg.Model to estimator.Regressor. Linear
// regression is the "simpler model" the paper tested and excluded because
// its estimates trail GB and NN by a significant factor (Section 2.2); ext1
// keeps that exclusion reproducible, and nothing serves or persists one.
type linRegRegressor struct {
	model *linreg.Model
}

// Name implements estimator.Regressor.
func (r *linRegRegressor) Name() string { return "LR" }

// Fit implements estimator.Regressor.
func (r *linRegRegressor) Fit(X [][]float64, y []float64) error {
	m, err := linreg.Train(X, y, linreg.DefaultConfig())
	if err != nil {
		return err
	}
	r.model = m
	return nil
}

// Predict implements estimator.Regressor.
func (r *linRegRegressor) Predict(x []float64) float64 {
	if r.model == nil {
		panic("bench: linRegRegressor used before Fit")
	}
	return r.model.Predict(x)
}

// MemoryBytes implements estimator.Regressor.
func (r *linRegRegressor) MemoryBytes() int {
	if r.model == nil {
		return 0
	}
	return r.model.MemoryBytes()
}

// nnRegressor adapts nn.Model to estimator.Regressor. The feed-forward
// network is the paper's second regressor (Section 4), which the figures
// and tables run beside GB; it lost ext9's bar for a serving slot (median and p95
// q-error both worse, at about twice GB's CPU per estimate), so only the
// harness trains one, and nothing serves or persists one.
type nnRegressor struct {
	cfg   nn.Config
	model *nn.Model
}

// NewNNFactory returns a factory producing feed-forward regressors with the
// given configuration.
func NewNNFactory(cfg nn.Config) estimator.RegressorFactory {
	return func() estimator.Regressor { return &nnRegressor{cfg: cfg} }
}

// Name implements estimator.Regressor.
func (r *nnRegressor) Name() string { return "NN" }

// Fit implements estimator.Regressor.
func (r *nnRegressor) Fit(X [][]float64, y []float64) error {
	m, err := nn.Train(X, y, r.cfg)
	if err != nil {
		return err
	}
	r.model = m
	return nil
}

// Predict implements estimator.Regressor.
func (r *nnRegressor) Predict(x []float64) float64 {
	if r.model == nil {
		panic("bench: nnRegressor used before Fit")
	}
	return r.model.Predict(x)
}

// MemoryBytes implements estimator.Regressor.
func (r *nnRegressor) MemoryBytes() int {
	if r.model == nil {
		return 0
	}
	return r.model.MemoryBytes()
}

func maxEntries(m *core.TableMeta) int {
	out := 0
	for _, a := range m.Attrs {
		if a.NEntries > out {
			out = a.NEntries
		}
	}
	return out
}
