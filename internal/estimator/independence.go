package estimator

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"qfe/internal/core"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// Independence is the Postgres-style baseline of Section 5.2 ("essentially
// independence assumption", after Selinger et al. [25]). It mirrors how
// PostgreSQL's clauselist_selectivity machinery combines per-clause
// statistics:
//
//   - range clauses use the column's histogram CDF with linear
//     interpolation inside buckets (PostgreSQL's scalarineqsel,
//     table.Column.FractionLE);
//   - equality uses 1/n_distinct, inequality its complement (eqsel/neqsel
//     without MCV lists);
//   - a lower+upper bound pair on the same attribute is recognized as one
//     range (PostgreSQL's range-query clause pairing);
//   - everything else multiplies under independence for AND and combines as
//     s1 + s2 - s1*s2 for OR.
//
// Cross-attribute correlations are invisible by construction — the failure
// mode the paper's Figure 4 measures.
//
// It keeps no statistics of its own: a clause reads its column's distinct
// count and histogram from the catalog (table.Column), one ANALYZE per column.
type Independence struct {
	DB *table.DB
}

// Name implements Estimator.
func (ind *Independence) Name() string { return "Postgres" }

// selPred is the per-clause selectivity (eqsel/neqsel/scalarineqsel).
func selPred(c *table.Column, op sqlparse.CmpOp, val int64) float64 {
	switch op {
	case sqlparse.OpEq:
		if val < c.Min() || val > c.Max() {
			return 0
		}
		return 1 / float64(c.Distinct())
	case sqlparse.OpNe:
		if val < c.Min() || val > c.Max() {
			return 1
		}
		return 1 - 1/float64(c.Distinct())
	case sqlparse.OpLe:
		return c.FractionLE(val)
	case sqlparse.OpLt, sqlparse.OpGe:
		below := 0.0 // the share of rows < val: none below MinInt64, where val-1 wraps
		if val > math.MinInt64 {
			below = c.FractionLE(val - 1)
		}
		if op == sqlparse.OpLt {
			return below
		}
		return 1 - below
	case sqlparse.OpGt:
		return 1 - c.FractionLE(val)
	}
	return 0.5
}

// selExpr estimates the selectivity of a single-attribute boolean expression
// the way PostgreSQL's clauselist machinery does: conjunctions pair one
// lower and one upper bound into a range and multiply the rest; disjunctions
// fold s1 + s2 - s1*s2.
func selExpr(c *table.Column, expr sqlparse.Expr) float64 {
	switch n := expr.(type) {
	case *sqlparse.Pred:
		return selPred(c, n.Op, n.Val)
	case *sqlparse.Or:
		sel := 0.0
		for _, k := range n.Kids {
			sk := selExpr(c, k)
			sel = sel + sk - sel*sk
		}
		return sel
	case *sqlparse.And:
		sel := 1.0
		var lower, upper *sqlparse.Pred
		for _, k := range n.Kids {
			p, isPred := k.(*sqlparse.Pred)
			if !isPred {
				sel *= selExpr(c, k)
				continue
			}
			switch p.Op {
			case sqlparse.OpGt, sqlparse.OpGe:
				if lower == nil {
					lower = p
					continue
				}
			case sqlparse.OpLt, sqlparse.OpLe:
				if upper == nil {
					upper = p
					continue
				}
			}
			sel *= selPred(c, p.Op, p.Val)
		}
		switch {
		case lower != nil && upper != nil:
			// Range pairing: sel(a <= hi) - sel(a < lo).
			hiSel := selPred(c, upper.Op, upper.Val)
			loBelow := 1 - selPred(c, lower.Op, lower.Val)
			r := hiSel - loBelow
			if r < defaultRangeSel {
				r = defaultRangeSel
			}
			sel *= r
		case lower != nil:
			sel *= selPred(c, lower.Op, lower.Val)
		case upper != nil:
			sel *= selPred(c, upper.Op, upper.Val)
		}
		return sel
	}
	return 0.5
}

// defaultRangeSel mirrors PostgreSQL's DEFAULT_RANGE_INEQ_SEL floor for
// degenerate ranges.
const defaultRangeSel = 0.005

// Estimate implements Estimator. It is safe for concurrent use: the only
// state it reads besides the query is the catalog's per-column statistics.
func (ind *Independence) Estimate(q *sqlparse.Query) (float64, error) {
	perTable := make([]sqlparse.And, len(q.Tables))
	if err := core.SplitWhereByTable(q, q.Tables, perTable); err != nil {
		return 0, err
	}
	est := 1.0
	for _, tn := range q.Tables {
		t := ind.DB.Table(tn)
		if t == nil {
			return 0, fmt.Errorf("estimator: unknown table %q", tn)
		}
		est *= float64(t.NumRows())
		// A table listed twice (self-join) sees its predicates both times.
		// The share is one table's, so its attributes are told apart by
		// column: "A1" and "forest.A1" are one compound.
		compounds, err := sqlparse.CompoundsBy(&perTable[slices.Index(q.Tables, tn)], columnName)
		if err != nil {
			return 0, core.Unsupported(fmt.Errorf("estimator: independence baseline requires per-attribute compounds: %w", err))
		}
		for _, cp := range compounds {
			col, err := column(t, cp.Attr)
			if err != nil {
				return 0, err
			}
			est *= selExpr(col, cp.Expr)
		}
	}
	// Join selectivities: 1/max(V(left), V(right)) per equi-join edge
	// (System R).
	for _, j := range q.Joins {
		lt, rt := ind.DB.Table(j.LeftTable), ind.DB.Table(j.RightTable)
		if lt == nil || rt == nil {
			return 0, fmt.Errorf("estimator: join %s references unknown table", j)
		}
		lc, lerr := column(lt, j.LeftCol)
		rc, rerr := column(rt, j.RightCol)
		if err := cmp.Or(lerr, rerr); err != nil {
			return 0, err
		}
		est /= float64(max(lc.Distinct(), rc.Distinct()))
	}
	if est < 1 {
		est = 1
	}
	return est, nil
}

// EstimateCtx implements ContextEstimator: the context is checked on entry;
// what follows is arithmetic on the catalog's histograms (a column nothing
// has asked about yet is first gathered in one pass) — bounded work with
// nowhere to block (see Local.EstimateCtx).
func (ind *Independence) EstimateCtx(ctx context.Context, q *sqlparse.Query) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return ind.Estimate(q)
}

// columnName is a predicate's attribute name without its table qualifier.
func columnName(attr string) (string, error) { return attr[strings.IndexByte(attr, '.')+1:], nil }

// column returns t's column name, or an error naming both.
func column(t *table.Table, name string) (*table.Column, error) {
	if c := t.Column(name); c != nil {
		return c, nil
	}
	return nil, fmt.Errorf("estimator: table %q has no column %q", t.Name, name)
}
