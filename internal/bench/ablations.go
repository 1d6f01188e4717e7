package bench

import (
	"math"

	"qfe/internal/core"
	"qfe/internal/estimator"
	"qfe/internal/metrics"
	"qfe/internal/ml/gb"
	"qfe/internal/sqlparse"
	"qfe/internal/workload"
)

// This file implements the design-choice ablations DESIGN.md calls out.
// They are not paper artifacts; they justify implementation decisions the
// paper leaves open.

// labels is a regression target for cardinalities: to maps a cardinality to
// the target the model fits, from a prediction back to an estimate.
type labels struct{ to, from func(float64) float64 }

var (
	// log2Labels is the target every served model regresses on.
	log2Labels = labels{estimator.Log2Label, estimator.FromLog2Label}
	// rawLabels is abl4's alternative: the cardinality itself, a prediction
	// below one row (or NaN) read as one row.
	rawLabels = labels{func(card float64) float64 { return card }, func(pred float64) float64 {
		if pred < 1 || math.IsNaN(pred) {
			return 1
		}
		return pred
	}}
)

// fitCustom is the single-table harness for experiments that need a
// featurizer outside the core registry, or labels other than the served ones:
// featurize train, fit GB on lab's targets, and estimate a WHERE through the
// same featurizer and lab.from.
func fitCustom(featurize func(sqlparse.Expr) ([]float64, error), cfg gb.Config, lab labels, train workload.Set) (func(sqlparse.Expr) (float64, error), error) {
	X := make([][]float64, len(train))
	y := make([]float64, len(train))
	for i, l := range train {
		vec, err := featurize(l.Query.Where)
		if err != nil {
			return nil, err
		}
		X[i] = vec
		y[i] = lab.to(float64(l.Card))
	}
	model, err := gb.Train(X, y, cfg)
	if err != nil {
		return nil, err
	}
	return func(expr sqlparse.Expr) (float64, error) {
		vec, err := featurize(expr)
		if err != nil {
			return 0, err
		}
		return lab.from(model.Predict(vec)), nil
	}, nil
}

// trainEvalCustom is fitCustom scored on test: the q-error summary.
func trainEvalCustom(featurize func(sqlparse.Expr) ([]float64, error), cfg gb.Config, lab labels, train, test workload.Set) (metrics.Summary, error) {
	estimate, err := fitCustom(featurize, cfg, lab, train)
	if err != nil {
		return metrics.Summary{}, err
	}
	qerrs := make([]float64, len(test))
	for i, l := range test {
		est, err := estimate(l.Query.Where)
		if err != nil {
			return metrics.Summary{}, err
		}
		qerrs[i] = metrics.QError(float64(l.Card), est)
	}
	return metrics.Summarize(qerrs), nil
}

// AblationHalfEntries compares the paper's three-valued partition entries
// {0, ½, 1} against binarized variants that collapse ½ to 1 (optimistic) or
// 0 (pessimistic) — quantifying what the categorical middle value buys.
func AblationHalfEntries(env *Env) (*Report, error) {
	r := &Report{ID: "abl2", Title: "Ablation: ½ entries vs binarized partitions"}
	train, test, err := env.ConjWorkload()
	if err != nil {
		return nil, err
	}
	forest, err := env.Forest()
	if err != nil {
		return nil, err
	}
	meta := core.NewTableMeta(forest, env.Scale.Entries)
	f := core.NewConjunctive(meta, env.coreOptions())

	variants := []struct {
		label string
		remap func(float64) float64
	}{
		{"three-valued (paper)", func(v float64) float64 { return v }},
		{"binarized: half -> 1", func(v float64) float64 {
			if v == 0.5 {
				return 1
			}
			return v
		}},
		{"binarized: half -> 0", func(v float64) float64 {
			if v == 0.5 {
				return 0
			}
			return v
		}},
	}
	for _, variant := range variants {
		remap := variant.remap
		featurize := func(expr sqlparse.Expr) ([]float64, error) {
			vec, err := f.Featurize(expr)
			if err != nil {
				return nil, err
			}
			for i, v := range vec {
				vec[i] = remap(v)
			}
			return vec, nil
		}
		sum, err := trainEvalCustom(featurize, env.gbConfig(), log2Labels, train, test)
		if err != nil {
			return nil, err
		}
		r.Lines = append(r.Lines, summaryRow(variant.label, sum))
	}
	return r, nil
}

// AblationLDEMerge compares Algorithm 2's entry-wise max merge against a
// sum-clamp merge for the per-disjunct vectors of Limited Disjunction
// Encoding.
func AblationLDEMerge(env *Env) (*Report, error) {
	r := &Report{ID: "abl3", Title: "Ablation: LDE entry-wise max vs sum-clamp merge"}
	train, test, err := env.MixedWorkload()
	if err != nil {
		return nil, err
	}
	forest, err := env.Forest()
	if err != nil {
		return nil, err
	}
	opts := env.coreOptions()
	meta := core.NewTableMeta(forest, env.Scale.Entries)

	makeFeaturizer := func(sumClamp bool) func(sqlparse.Expr) ([]float64, error) {
		return func(expr sqlparse.Expr) ([]float64, error) {
			compounds, err := sqlparse.CompoundPredicates(expr)
			if err != nil {
				return nil, err
			}
			byAttr := make(map[string]sqlparse.Expr, len(compounds))
			for _, cp := range compounds {
				byAttr[cp.Attr] = cp.Expr
			}
			var vec []float64
			for _, a := range meta.Attrs {
				cpExpr, has := byAttr[a.Name]
				if !has {
					av := make([]float64, a.NEntries)
					for i := range av {
						av[i] = 1
					}
					vec = append(vec, av...)
					if opts.AttrSel {
						vec = append(vec, 1)
					}
					continue
				}
				dnf, err := sqlparse.ToDNF(cpExpr)
				if err != nil {
					return nil, err
				}
				merged := make([]float64, a.NEntries)
				var selSum float64
				for _, conj := range dnf {
					branch, sel, err := core.FeaturizeAttrConjunction(a, conj)
					if err != nil {
						return nil, err
					}
					for i, v := range branch {
						if sumClamp {
							merged[i] += v
							if merged[i] > 1 {
								merged[i] = 1
							}
						} else if v > merged[i] {
							merged[i] = v
						}
					}
					selSum += sel
				}
				if selSum > 1 {
					selSum = 1
				}
				vec = append(vec, merged...)
				if opts.AttrSel {
					vec = append(vec, selSum)
				}
			}
			return vec, nil
		}
	}

	for _, variant := range []struct {
		label    string
		sumClamp bool
	}{
		{"entry-wise max (Alg. 2)", false},
		{"sum-clamp", true},
	} {
		sum, err := trainEvalCustom(makeFeaturizer(variant.sumClamp), env.gbConfig(), log2Labels, train, test)
		if err != nil {
			return nil, err
		}
		r.Lines = append(r.Lines, summaryRow(variant.label, sum))
	}
	r.Printf("(sum-clamp loses the categorical reading: two half-covered branches sum to 'fully covered')")
	return r, nil
}

// AblationLabelTransform compares log2-transformed against raw cardinality
// labels for GB + conjunctive.
func AblationLabelTransform(env *Env) (*Report, error) {
	r := &Report{ID: "abl4", Title: "Ablation: log2 vs raw label transform"}
	train, test, err := env.ConjWorkload()
	if err != nil {
		return nil, err
	}
	forest, err := env.Forest()
	if err != nil {
		return nil, err
	}
	f := core.NewConjunctive(core.NewTableMeta(forest, env.Scale.Entries), env.coreOptions())
	for _, arm := range []struct {
		label string
		lab   labels
	}{
		{"log2 labels (default)", log2Labels},
		{"raw labels", rawLabels},
	} {
		sum, err := trainEvalCustom(f.Featurize, env.gbConfig(), arm.lab, train, test)
		if err != nil {
			return nil, err
		}
		r.Lines = append(r.Lines, summaryRow(arm.label, sum))
	}
	r.Printf("(squared error on raw labels optimizes absolute error, mismatching the q-error metric)")
	return r, nil
}
