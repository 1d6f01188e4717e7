package estimator

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"qfe/internal/core"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// Independence is the Postgres-style baseline of Section 5.2 ("essentially
// independence assumption", after Selinger et al. [25]). It mirrors how
// PostgreSQL's clauselist_selectivity machinery combines per-clause
// statistics:
//
//   - range clauses use a per-column histogram CDF with linear
//     interpolation inside buckets (PostgreSQL's scalarineqsel);
//   - equality uses 1/n_distinct, inequality its complement (eqsel/neqsel
//     without MCV lists);
//   - a lower+upper bound pair on the same attribute is recognized as one
//     range (PostgreSQL's range-query clause pairing);
//   - everything else multiplies under independence for AND and combines as
//     s1 + s2 - s1*s2 for OR.
//
// Cross-attribute correlations are invisible by construction — the failure
// mode the paper's Figure 4 measures.
type Independence struct {
	DB *table.DB
	// Buckets is the histogram resolution; PostgreSQL's
	// default_statistics_target is 100. Zero means 100.
	Buckets int

	// mu guards the lazily-built stats cache so the estimator is safe for
	// concurrent use; a colStats in it is never written again, so it is read
	// without the lock.
	mu    sync.Mutex
	stats map[string]*colStats
}

// Name implements Estimator.
func (ind *Independence) Name() string { return "Postgres" }

// colStats is the per-column statistics record: an equi-width histogram plus
// the distinct count, gathered once per column on first use (ANALYZE).
type colStats struct {
	min, max int64
	n        int
	distinct int
	counts   []int64 // equi-width buckets over [min, max]
}

func (ind *Independence) statsFor(t *table.Table, colName string) (*colStats, error) {
	key := t.Name + "." + colName
	ind.mu.Lock()
	defer ind.mu.Unlock()
	if ind.stats == nil {
		ind.stats = make(map[string]*colStats)
	}
	if s, ok := ind.stats[key]; ok {
		return s, nil
	}
	col := t.Column(colName)
	if col == nil {
		return nil, fmt.Errorf("estimator: table %q has no column %q", t.Name, colName)
	}
	b := ind.Buckets
	if b <= 0 {
		b = 100
	}
	if d := col.DomainSize(); d < int64(b) {
		b = int(d)
	}
	s := &colStats{min: col.Min(), max: col.Max(), n: col.Len(), distinct: col.Distinct(), counts: make([]int64, b)}
	domain := s.max - s.min + 1
	for _, v := range col.Vals {
		idx := int((v - s.min) * int64(b) / domain)
		s.counts[idx]++
	}
	ind.stats[key] = s
	return s, nil
}

// cdfLE returns the estimated fraction of rows with value <= v, using linear
// interpolation within the containing bucket.
func (s *colStats) cdfLE(v int64) float64 {
	if v < s.min {
		return 0
	}
	if v >= s.max {
		return 1
	}
	b := int64(len(s.counts))
	domain := s.max - s.min + 1
	idx := (v - s.min) * b / domain
	var below int64
	for i := int64(0); i < idx; i++ {
		below += s.counts[i]
	}
	// Bucket idx covers values [lo, hi]; assume uniformity inside.
	lo := s.min + ceilDiv(idx*domain, b)
	hi := s.min + ceilDiv((idx+1)*domain, b) - 1
	frac := 1.0
	if hi > lo {
		frac = float64(v-lo+1) / float64(hi-lo+1)
	}
	return (float64(below) + frac*float64(s.counts[idx])) / float64(s.n)
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}

// selPred is the per-clause selectivity (eqsel/neqsel/scalarineqsel).
func (s *colStats) selPred(op sqlparse.CmpOp, val int64) float64 {
	switch op {
	case sqlparse.OpEq:
		if val < s.min || val > s.max {
			return 0
		}
		return 1 / float64(s.distinct)
	case sqlparse.OpNe:
		if val < s.min || val > s.max {
			return 1
		}
		return 1 - 1/float64(s.distinct)
	case sqlparse.OpLe:
		return s.cdfLE(val)
	case sqlparse.OpLt:
		return s.cdfLE(val - 1)
	case sqlparse.OpGe:
		return 1 - s.cdfLE(val-1)
	case sqlparse.OpGt:
		return 1 - s.cdfLE(val)
	}
	return 0.5
}

// selExpr estimates the selectivity of a single-attribute boolean expression
// the way PostgreSQL's clauselist machinery does: conjunctions pair one
// lower and one upper bound into a range and multiply the rest; disjunctions
// fold s1 + s2 - s1*s2.
func (s *colStats) selExpr(expr sqlparse.Expr) float64 {
	switch n := expr.(type) {
	case *sqlparse.Pred:
		return s.selPred(n.Op, n.Val)
	case *sqlparse.Or:
		sel := 0.0
		for _, k := range n.Kids {
			sk := s.selExpr(k)
			sel = sel + sk - sel*sk
		}
		return sel
	case *sqlparse.And:
		sel := 1.0
		var lower, upper *sqlparse.Pred
		for _, k := range n.Kids {
			p, isPred := k.(*sqlparse.Pred)
			if !isPred {
				sel *= s.selExpr(k)
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
			sel *= s.selPred(p.Op, p.Val)
		}
		switch {
		case lower != nil && upper != nil:
			// Range pairing: sel(a <= hi) - sel(a < lo).
			hiSel := s.selPred(upper.Op, upper.Val)
			loBelow := 1 - s.selPred(lower.Op, lower.Val)
			r := hiSel - loBelow
			if r < defaultRangeSel {
				r = defaultRangeSel
			}
			sel *= r
		case lower != nil:
			sel *= s.selPred(lower.Op, lower.Val)
		case upper != nil:
			sel *= s.selPred(upper.Op, upper.Val)
		}
		return sel
	}
	return 0.5
}

// defaultRangeSel mirrors PostgreSQL's DEFAULT_RANGE_INEQ_SEL floor for
// degenerate ranges.
const defaultRangeSel = 0.005

// Estimate implements Estimator. Concurrent calls share only the statistics
// cache, and hold its lock only while statsFor looks a column up or gathers it.
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
		compounds, err := sqlparse.CompoundPredicates(&perTable[slices.Index(q.Tables, tn)])
		if err != nil {
			return 0, core.Unsupported(fmt.Errorf("estimator: independence baseline requires per-attribute compounds: %w", err))
		}
		for _, cp := range compounds {
			_, colName := splitTableAttr(cp.Attr, tn)
			stats, err := ind.statsFor(t, colName)
			if err != nil {
				return 0, err
			}
			est *= stats.selExpr(cp.Expr)
		}
	}
	// Join selectivities: 1/max(V(left), V(right)) per equi-join edge
	// (System R).
	for _, j := range q.Joins {
		lt, rt := ind.DB.Table(j.LeftTable), ind.DB.Table(j.RightTable)
		if lt == nil || rt == nil {
			return 0, fmt.Errorf("estimator: join %s references unknown table", j)
		}
		ls, err := ind.statsFor(lt, j.LeftCol)
		if err != nil {
			return 0, err
		}
		rs, err := ind.statsFor(rt, j.RightCol)
		if err != nil {
			return 0, err
		}
		v := ls.distinct
		if rs.distinct > v {
			v = rs.distinct
		}
		if v > 0 {
			est /= float64(v)
		}
	}
	if est < 1 {
		est = 1
	}
	return est, nil
}

// EstimateCtx implements ContextEstimator: the context is checked on entry;
// what follows is histogram arithmetic plus, the first time a column is
// seen, one pass over it to gather its statistics — bounded work with
// nowhere to block (see Local.EstimateCtx).
func (ind *Independence) EstimateCtx(ctx context.Context, q *sqlparse.Query) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return ind.Estimate(q)
}

func splitTableAttr(attr, deflt string) (tbl, col string) {
	for i := 0; i < len(attr); i++ {
		if attr[i] == '.' {
			return attr[:i], attr[i+1:]
		}
	}
	return deflt, attr
}
