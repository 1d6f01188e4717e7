package workload

import (
	"fmt"
	"math/rand"

	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// GroupByConfig configures the filtered-group-by workload of the Section 6
// extension: conjunctive selections plus 1..MaxGroupAttrs grouping
// attributes; the label is the number of groups, not the number of rows.
type GroupByConfig struct {
	// Count is the number of labeled queries to produce.
	Count int
	// MaxAttrs bounds the selection attributes (as in ConjConfig).
	MaxAttrs int
	// MaxGroupAttrs bounds the grouping attributes (>= 1).
	MaxGroupAttrs int
	// MaxNotEquals bounds the per-attribute not-equal predicates.
	MaxNotEquals int
	// Seed drives generation.
	Seed int64
}

// DefaultGroupByConfig is sized like the other forest workloads.
func DefaultGroupByConfig() GroupByConfig {
	return GroupByConfig{Count: 1000, MaxGroupAttrs: 2, MaxNotEquals: 3, Seed: 6}
}

// GroupBy generates filtered group-by queries over tbl, labeled with their
// true group counts. Selection generation matches the conjunctive workload
// (anchored closed ranges plus not-equals); grouping attributes are drawn
// from the remaining columns so selections and groupings never collide on
// an attribute.
func GroupBy(tbl *table.Table, cfg GroupByConfig) (Set, error) {
	if cfg.Count < 1 {
		return nil, fmt.Errorf("workload: Count = %d, want >= 1", cfg.Count)
	}
	if cfg.MaxGroupAttrs < 1 {
		return nil, fmt.Errorf("workload: MaxGroupAttrs = %d, want >= 1", cfg.MaxGroupAttrs)
	}
	if cfg.MaxAttrs <= 0 || cfg.MaxAttrs >= tbl.NumCols() {
		cfg.MaxAttrs = tbl.NumCols() - 1 // leave room for grouping attrs
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := singleDB(tbl)
	names := tbl.ColumnNames()

	var out Set
	for attempts := 0; len(out) < cfg.Count; attempts++ {
		if attempts > maxAttemptFactor*cfg.Count {
			return nil, errTooManyRejects
		}
		anchor := rng.Intn(tbl.NumRows())
		k := 1 + rng.Intn(cfg.MaxAttrs)
		g := 1 + rng.Intn(cfg.MaxGroupAttrs)
		perm := rng.Perm(len(names))
		if k+g > len(names) {
			k = len(names) - g
		}
		selAttrs := make([]string, 0, k)
		grpAttrs := make([]string, 0, g)
		for _, idx := range perm[:k] {
			selAttrs = append(selAttrs, names[idx])
		}
		for _, idx := range perm[k : k+g] {
			grpAttrs = append(grpAttrs, names[idx])
		}

		var conj []sqlparse.Expr
		for _, a := range selAttrs {
			conj = append(conj, attrPreds(rng, tbl, a, anchor, cfg.MaxNotEquals)...)
		}
		q := &sqlparse.Query{
			Tables:  []string{tbl.Name},
			Where:   sqlparse.NewAnd(conj...),
			GroupBy: grpAttrs,
		}
		if err := exec.Bind(q, db); err != nil {
			return nil, err
		}
		groups, err := exec.CountGroups(db, q)
		if err != nil {
			return nil, err
		}
		if groups == 0 {
			continue
		}
		out = append(out, Labeled{Query: q, Card: groups})
	}
	return out, nil
}
