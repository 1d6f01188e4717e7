package workload

import (
	"fmt"
	"math/rand"

	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// ConjConfig configures the conjunctive workload generator of Section 5:
// "We draw k, 1 <= k <= 55 distinct attributes uniformly at random and
// randomly generate a closed range predicate for each. Additionally, we
// generate l, 0 <= l <= 5 not-equal predicates, for each of the k chosen
// attributes, that exclude values from the aforementioned range."
type ConjConfig struct {
	// Count is the number of labeled, non-empty queries to produce.
	Count int
	// MaxAttrs bounds k; 0 means "all attributes of the table".
	MaxAttrs int
	// MinAttrs bounds k from below (default 1).
	MinAttrs int
	// MaxNotEquals bounds l (the paper uses 5).
	MaxNotEquals int
	// Seed drives generation.
	Seed int64
}

func (c ConjConfig) normalized(numAttrs int) (ConjConfig, error) {
	if c.Count < 1 {
		return c, fmt.Errorf("workload: Count = %d, want >= 1", c.Count)
	}
	if c.MinAttrs < 1 {
		c.MinAttrs = 1
	}
	if c.MaxAttrs <= 0 || c.MaxAttrs > numAttrs {
		c.MaxAttrs = numAttrs
	}
	if c.MinAttrs > c.MaxAttrs {
		return c, fmt.Errorf("workload: MinAttrs %d > MaxAttrs %d", c.MinAttrs, c.MaxAttrs)
	}
	if c.MaxNotEquals < 0 {
		return c, fmt.Errorf("workload: MaxNotEquals = %d, want >= 0", c.MaxNotEquals)
	}
	return c, nil
}

// Conjunctive generates the conjunctive workload over tbl. Ranges are
// anchored at the attribute values of a randomly drawn data row, which keeps
// the non-empty rejection loop fast while still producing selectivities
// across the full spectrum.
func Conjunctive(tbl *table.Table, cfg ConjConfig) (Set, error) {
	cfg, err := cfg.normalized(tbl.NumCols())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	names := tbl.ColumnNames()
	return generate(singleDB(tbl), cfg.Count, func() (*sqlparse.Query, error) {
		anchor := rng.Intn(tbl.NumRows())
		k := cfg.MinAttrs + rng.Intn(cfg.MaxAttrs-cfg.MinAttrs+1)
		attrs := pickDistinctAttrs(rng, names, k)
		var conj []sqlparse.Expr
		for _, a := range attrs {
			conj = append(conj, attrPreds(rng, tbl, a, anchor, cfg.MaxNotEquals)...)
		}
		return &sqlparse.Query{Tables: []string{tbl.Name}, Where: sqlparse.NewAnd(conj...)}, nil
	})
}

// attrPreds generates the per-attribute predicate list: a closed range (or a
// single bound, or an equality for tiny domains) anchored at row anchor's
// value, plus up to maxNE not-equal predicates excluding non-anchor values
// inside the range.
func attrPreds(rng *rand.Rand, tbl *table.Table, attr string, anchor, maxNE int) []sqlparse.Expr {
	col := tbl.Column(attr)
	v := col.Vals[anchor]
	mn, mx := col.Min(), col.Max()
	domain := mx - mn + 1

	// Tiny domains (binary indicators): a range is meaningless, emit an
	// equality predicate.
	if domain <= 4 {
		return []sqlparse.Expr{&sqlparse.Pred{Attr: attr, Op: sqlparse.OpEq, Val: v}}
	}

	// Range width: exponentially distributed fraction of the domain, so
	// selectivities cover several orders of magnitude.
	width := func() int64 {
		f := rng.ExpFloat64() * 0.15
		if f > 1 {
			f = 1
		}
		w := int64(f * float64(domain))
		if w < 1 {
			w = 1
		}
		return w
	}
	lo := v - int64(rng.Int63n(width()+1))
	hi := v + int64(rng.Int63n(width()+1))
	if lo < mn {
		lo = mn
	}
	if hi > mx {
		hi = mx
	}

	var preds []sqlparse.Expr
	switch rng.Intn(10) {
	case 0: // one-sided lower bound
		preds = append(preds, &sqlparse.Pred{Attr: attr, Op: sqlparse.OpGe, Val: lo})
	case 1: // one-sided upper bound
		preds = append(preds, &sqlparse.Pred{Attr: attr, Op: sqlparse.OpLe, Val: hi})
	default: // closed range (the paper's standard shape)
		preds = append(preds,
			&sqlparse.Pred{Attr: attr, Op: sqlparse.OpGe, Val: lo},
			&sqlparse.Pred{Attr: attr, Op: sqlparse.OpLe, Val: hi},
		)
	}

	// Not-equal predicates excluding values from the range, never the
	// anchor value itself (so the anchor row keeps qualifying).
	if span := hi - lo + 1; span > 2 && maxNE > 0 {
		l := rng.Intn(maxNE + 1)
		used := map[int64]bool{v: true}
		for i := 0; i < l; i++ {
			ex := lo + rng.Int63n(span)
			if used[ex] {
				continue
			}
			used[ex] = true
			preds = append(preds, &sqlparse.Pred{Attr: attr, Op: sqlparse.OpNe, Val: ex})
		}
	}
	return preds
}

// MixedConfig configures the mixed workload generator: the per-attribute
// generation is repeated m times, 1 <= m <= MaxBranches, and concatenated
// via OR (Section 5; an example appears below Definition 3.3).
type MixedConfig struct {
	ConjConfig
	// MaxBranches bounds m, the number of OR-ed conjunctions per compound
	// predicate (the paper uses 3).
	MaxBranches int
}

// Mixed generates the mixed workload over tbl: one compound predicate per
// chosen attribute, each a disjunction of 1..MaxBranches anchored
// conjunctions. The result is a valid mixed query per Definition 3.3.
func Mixed(tbl *table.Table, cfg MixedConfig) (Set, error) {
	base, err := cfg.ConjConfig.normalized(tbl.NumCols())
	if err != nil {
		return nil, err
	}
	if cfg.MaxBranches < 1 {
		return nil, fmt.Errorf("workload: MaxBranches = %d, want >= 1", cfg.MaxBranches)
	}
	rng := rand.New(rand.NewSource(base.Seed))
	names := tbl.ColumnNames()
	return generate(singleDB(tbl), base.Count, func() (*sqlparse.Query, error) {
		anchor := rng.Intn(tbl.NumRows())
		k := base.MinAttrs + rng.Intn(base.MaxAttrs-base.MinAttrs+1)
		attrs := pickDistinctAttrs(rng, names, k)
		var compounds []sqlparse.Expr
		for _, a := range attrs {
			m := 1 + rng.Intn(cfg.MaxBranches)
			var branches []sqlparse.Expr
			// The first branch is anchored at the shared anchor row so the
			// whole conjunction of compounds stays satisfiable; further
			// branches anchor at independent rows.
			branches = append(branches, sqlparse.NewAnd(attrPreds(rng, tbl, a, anchor, base.MaxNotEquals)...))
			for b := 1; b < m; b++ {
				other := rng.Intn(tbl.NumRows())
				branches = append(branches, sqlparse.NewAnd(attrPreds(rng, tbl, a, other, base.MaxNotEquals)...))
			}
			compounds = append(compounds, sqlparse.NewOr(branches...))
		}
		return &sqlparse.Query{Tables: []string{tbl.Name}, Where: sqlparse.NewAnd(compounds...)}, nil
	})
}
