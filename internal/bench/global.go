package bench

import (
	"fmt"

	"qfe/internal/bench/qft"
	"qfe/internal/catalog"
	"qfe/internal/core"
	"qfe/internal/estimator"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// global is the global-model estimator of Section 2.1.2, Table 4's "ours": a
// single regressor over the per-table featurizations of a query's selection
// predicates, concatenated in schema order and followed by the binary table
// vector (entry i set when table i participates in the join), serving every
// sub-schema of the schema.
//
// A table in the query without predicates contributes its QFT's
// no-predicate encoding; a table absent from the query contributes an
// all-zero block, which together with the table vector keeps distinct
// queries distinct.
type global struct {
	schema *catalog.Schema
	qft    string
	feats  []core.Featurizer // one per schema table, in schema order
	reg    estimator.Regressor
}

// newGlobal builds the estimator over the schema's tables in db, with one
// featurizer of the named QFT per table.
func newGlobal(db *table.DB, schema *catalog.Schema, name string, opts core.Options, factory estimator.RegressorFactory) (*global, error) {
	opts = opts.Normalized()
	g := &global{schema: schema, qft: name, reg: factory()}
	for _, tn := range schema.Tables {
		t := db.Table(tn)
		if t == nil {
			return nil, fmt.Errorf("bench: schema table %q not in database", tn)
		}
		f, err := qft.New(name, core.NewTableMeta(t, opts.MaxEntriesPerAttr), opts)
		if err != nil {
			return nil, err
		}
		g.feats = append(g.feats, f)
	}
	return g, nil
}

// Name implements estimator.Estimator.
func (g *global) Name() string { return fmt.Sprintf("%s + %s (global)", g.reg.Name(), g.qft) }

// featurize encodes q: each table's selection conjuncts go to its
// featurizer, and the table vector ends the vector.
func (g *global) featurize(q *sqlparse.Query) ([]float64, error) {
	tables := g.schema.Tables
	perTable := make([]sqlparse.And, len(tables))
	if err := core.SplitWhereByTable(q, tables, perTable); err != nil {
		return nil, err
	}
	bits := g.schema.TableBitvector(q.Tables)
	var vec []float64
	for i, f := range g.feats {
		if bits[i] == 0 {
			vec = append(vec, make([]float64, f.Dim())...)
			continue
		}
		block, err := f.Featurize(&perTable[i])
		if err != nil {
			return nil, fmt.Errorf("bench: table %q: %w", tables[i], err)
		}
		vec = append(vec, block...)
	}
	return append(vec, bits...), nil
}

// Train fits the single global model on the whole training set, regressing
// estimator.Log2Label.
func (g *global) Train(train workload.Set) error {
	X := make([][]float64, len(train))
	y := make([]float64, len(train))
	for i, lq := range train {
		vec, err := g.featurize(lq.Query)
		if err != nil {
			return fmt.Errorf("bench: featurize training query %d: %w", i, err)
		}
		X[i], y[i] = vec, estimator.Log2Label(float64(lq.Card))
	}
	return g.reg.Fit(X, y)
}

// Estimate implements estimator.Estimator.
func (g *global) Estimate(q *sqlparse.Query) (float64, error) {
	vec, err := g.featurize(q)
	if err != nil {
		return 0, err
	}
	return estimator.FromLog2Label(g.reg.Predict(vec)), nil
}
