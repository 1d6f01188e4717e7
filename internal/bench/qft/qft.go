// Package qft holds the baselines the paper's encodings are measured against
// — Singular Predicate Encoding ("simple", Section 2.1.1) and Range
// Predicate Encoding ("range", Section 3.1) — and the harness's name for
// each of the four QFTs. Universal Conjunction Encoding ("conjunctive") and
// Limited Disjunction Encoding ("complex"), the paper's contribution and
// what the binaries serve, live in internal/core. Like core's featurizers,
// the baselines read which attribute a predicate constrains off the column
// stamp exec.Bind wrote (core.TableMeta.Slot).
package qft

import (
	"fmt"
	"slices"

	"qfe/internal/core"
	"qfe/internal/sqlparse"
)

// Names lists the QFT names New accepts, in the paper's order.
func Names() []string { return []string{"simple", "range", "conjunctive", "complex"} }

// New constructs the named QFT over meta: a baseline here, or one of the
// paper's encodings through core.New.
func New(name string, meta *core.TableMeta, opts core.Options) (core.Featurizer, error) {
	switch name {
	case "simple":
		return NewSimple(meta), nil
	case "range":
		return NewRange(meta), nil
	case "conjunctive", "complex":
		return core.New(name, meta, opts)
	}
	return nil, fmt.Errorf("qft: unknown QFT %q (want simple, range, conjunctive, or complex)", name)
}

// Factory returns New for name as the featurizer constructor an
// estimator.LocalConfig takes, or nil for a name New refuses.
func Factory(name string) func(*core.TableMeta, core.Options) core.Featurizer {
	if !slices.Contains(Names(), name) {
		return nil
	}
	return func(meta *core.TableMeta, opts core.Options) core.Featurizer {
		f, _ := New(name, meta, opts) // New refuses only a name, and name is one of Names
		return f
	}
}

// featurize is f.Featurize: make, then FeaturizeInto.
func featurize(f core.Featurizer, expr sqlparse.Expr) ([]float64, error) {
	vec := make([]float64, f.Dim())
	if err := f.FeaturizeInto(vec, expr); err != nil {
		return nil, err
	}
	return vec, nil
}

// checkDst verifies the FeaturizeInto contract on the destination length.
func checkDst(qft string, dst []float64, dim int) error {
	if len(dst) != dim {
		return fmt.Errorf("core/%s: destination length %d, want %d", qft, len(dst), dim)
	}
	return nil
}

// walk hands visit each predicate of the conjunction expr, in order of
// appearance, with the attribute of meta it constrains. The baseline qft
// (named encoding) encodes conjunctions of simple predicates: the first
// disjunction, or predicate core.TableMeta.Slot cannot place, is the refusal.
func walk(qft, encoding string, meta *core.TableMeta, expr sqlparse.Expr, visit func(int, *sqlparse.Pred)) error {
	switch n := expr.(type) {
	case *sqlparse.And:
		for _, k := range n.Kids {
			if err := walk(qft, encoding, meta, k, visit); err != nil {
				return err
			}
		}
	case *sqlparse.Or:
		return core.Unsupported(fmt.Errorf("core/%s: disjunctions are not supported by %s", qft, encoding))
	case *sqlparse.Pred:
		ai, err := meta.Slot(qft, n)
		if err != nil {
			return err
		}
		visit(ai, n)
	}
	return nil
}
