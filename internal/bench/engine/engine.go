// Package engine implements the end-to-end substrate for the paper's
// Table 4: a cost-based join-order optimizer whose decisions are driven by
// an injected cardinality estimator, plus a real executor whose measured
// wall time reflects the chosen plan.
//
// The paper integrates its estimator into PostgreSQL and reports JOB-light
// run times under (a) PostgreSQL's own estimates, (b) the learned estimates,
// and (c) true cardinalities, observing only a small spread because the
// optimizer's search space is limited. This reproduction rebuilds the same
// mechanism at star-schema scale: selections are always pushed down, the
// only optimizer freedom is the satellite join order, and better cardinality
// estimates can only shave the probe work of intermediate results —
// reproducing the "defensive optimizer" effect rather than assuming it.
package engine

import (
	"fmt"
	"math"
	"time"

	"qfe/internal/estimator"
	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// Plan is a left-deep join order over a star query: the hub table first,
// then the satellites in join order.
type Plan struct {
	Hub        string
	Satellites []string
	// EstCost is the optimizer's estimated total cost of the plan.
	EstCost float64
}

// String renders the join order.
func (p *Plan) String() string {
	s := p.Hub
	for _, sat := range p.Satellites {
		s += " ⋈ " + sat
	}
	return s
}

// Optimizer chooses join orders using cardinality estimates from Est. A
// failed or non-finite estimate aborts planning; wrap Est in
// resilience.NewResilient for an optimizer that always gets an answer.
type Optimizer struct {
	Est estimator.Estimator
}

// ChoosePlan picks the cheapest left-deep satellite order for the star
// query q by dynamic programming over satellite subsets. The cost of a join
// step is |probe input| + |build side| + |output|, all under Est's
// estimates; cardinalities per subset are requested once and memoized.
func (o *Optimizer) ChoosePlan(q *sqlparse.Query) (*Plan, error) {
	hub, sats, err := starShape(q)
	if err != nil {
		return nil, err
	}
	if len(sats) == 0 {
		return &Plan{Hub: hub}, nil
	}
	n := len(sats)
	if n > 16 {
		return nil, fmt.Errorf("engine: %d satellites exceed the optimizer's subset budget", n)
	}

	// Memoized estimates: card[mask] is the estimated cardinality of the
	// sub-join of hub + the satellites in mask; satCard[i] the estimated
	// filtered size of satellite i alone.
	card := make([]float64, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		sub, err := subQuery(q, hub, sats, mask)
		if err != nil {
			return nil, err
		}
		c, err := o.estimate(sub)
		if err != nil {
			return nil, fmt.Errorf("engine: estimate for %v: %w", sub.Tables, err)
		}
		card[mask] = c
	}
	satCard := make([]float64, n)
	for i, s := range sats {
		sub, err := singleTableQuery(q, s)
		if err != nil {
			return nil, err
		}
		c, err := o.estimate(sub)
		if err != nil {
			return nil, fmt.Errorf("engine: estimate for %s: %w", s, err)
		}
		satCard[i] = c
	}

	// DP over subsets: best[mask] = cheapest cost to have joined the
	// satellites in mask; choice[mask] = last satellite joined.
	best := make([]float64, 1<<n)
	choice := make([]int, 1<<n)
	for mask := 1; mask < 1<<n; mask++ {
		best[mask] = math.Inf(1)
		for i := 0; i < n; i++ {
			bit := 1 << i
			if mask&bit == 0 {
				continue
			}
			prev := mask &^ bit
			stepCost := card[prev] + satCard[i] + card[mask]
			if c := best[prev] + stepCost; c < best[mask] {
				best[mask] = c
				choice[mask] = i
			}
		}
	}

	// Reconstruct the order.
	order := make([]string, 0, n)
	for mask := 1<<n - 1; mask != 0; {
		i := choice[mask]
		order = append(order, sats[i])
		mask &^= 1 << i
	}
	// Reverse: reconstruction walked from the full set backwards.
	for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
		order[l], order[r] = order[r], order[l]
	}
	return &Plan{Hub: hub, Satellites: order, EstCost: best[1<<n-1]}, nil
}

// estimate requests one cardinality, refusing what a cost cannot be built
// from: an estimator error, NaN, an infinity, a negative value.
func (o *Optimizer) estimate(sub *sqlparse.Query) (float64, error) {
	c, err := o.Est.Estimate(sub)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
		return 0, fmt.Errorf("engine: non-finite estimate %v", c)
	}
	return max(c, 1), nil
}

// ExecStats reports what executing a plan actually did.
type ExecStats struct {
	// Count is the query result (COUNT(*)).
	Count int64
	// ProbeTuples is the total number of intermediate-result entries probed
	// across all join steps — the work a better plan reduces.
	ProbeTuples int64
	// Elapsed is the measured wall time.
	Elapsed time.Duration
}

// Execute runs the plan: filter the hub, then hash-join the satellites in
// plan order, keeping intermediates multiplicity-compressed (hub key ->
// tuple count). Each join step scans its satellite once (build side) and
// probes every surviving intermediate entry, so measured time genuinely
// depends on how quickly the chosen order shrinks the intermediate.
func Execute(db *table.DB, q *sqlparse.Query, plan *Plan) (ExecStats, error) {
	start := time.Now()
	var stats ExecStats

	perTable, err := splitFilters(q)
	if err != nil {
		return stats, err
	}
	hubTbl := db.Table(plan.Hub)
	if hubTbl == nil {
		return stats, fmt.Errorf("engine: unknown table %q", plan.Hub)
	}
	// Filter the hub.
	bm, err := exec.EvalExpr(hubTbl, perTable[plan.Hub])
	if err != nil {
		return stats, err
	}
	if len(plan.Satellites) == 0 {
		stats.Count = int64(bm.Count())
		stats.Elapsed = time.Since(start)
		return stats, nil
	}
	hubKeyCol, err := hubKeyColumn(q, plan.Hub)
	if err != nil {
		return stats, err
	}

	// Materialize the intermediate as key -> multiplicity.
	inter := make(map[int64]int64, bm.Count())
	keyVals := hubTbl.Column(hubKeyCol).Vals
	bm.ForEach(func(r int) { inter[keyVals[r]]++ })

	for _, satName := range plan.Satellites {
		sat := db.Table(satName)
		if sat == nil {
			return stats, fmt.Errorf("engine: unknown table %q", satName)
		}
		fkCol, err := satFKColumn(q, satName)
		if err != nil {
			return stats, err
		}
		// Build side: scan the filtered satellite into key -> count.
		sbm, err := exec.EvalExpr(sat, perTable[satName])
		if err != nil {
			return stats, err
		}
		build := make(map[int64]int64, sbm.Count())
		fkVals := sat.Column(fkCol).Vals
		sbm.ForEach(func(r int) { build[fkVals[r]]++ })

		// Probe side: every surviving intermediate entry.
		for key, mult := range inter {
			stats.ProbeTuples++
			if cnt := build[key]; cnt == 0 {
				delete(inter, key)
			} else {
				inter[key] = mult * cnt
			}
		}
	}

	for _, mult := range inter {
		stats.Count += mult
	}
	stats.Elapsed = time.Since(start)
	return stats, nil
}

// RunWorkload optimizes and executes every query, returning the summed
// wall time and stats — one cell of Table 4.
func RunWorkload(db *table.DB, opt *Optimizer, queries []*sqlparse.Query) (time.Duration, []ExecStats, error) {
	var total time.Duration
	stats := make([]ExecStats, len(queries))
	for i, q := range queries {
		plan, err := opt.ChoosePlan(q)
		if err != nil {
			return 0, nil, fmt.Errorf("engine: plan query %d: %w", i, err)
		}
		st, err := Execute(db, q, plan)
		if err != nil {
			return 0, nil, fmt.Errorf("engine: execute query %d: %w", i, err)
		}
		stats[i] = st
		total += st.Elapsed
	}
	return total, stats, nil
}

// starShape validates that q is a star join and returns the hub plus the
// satellites. Every join predicate must involve a common hub table.
func starShape(q *sqlparse.Query) (hub string, sats []string, err error) {
	if len(q.Tables) == 1 {
		return q.Tables[0], nil, nil
	}
	counts := make(map[string]int)
	for _, j := range q.Joins {
		counts[j.LeftTable]++
		counts[j.RightTable]++
	}
	for t, c := range counts {
		if c == len(q.Joins) {
			hub = t
			break
		}
	}
	if hub == "" {
		return "", nil, fmt.Errorf("engine: query %v is not a star join", q.Tables)
	}
	for _, t := range q.Tables {
		if t != hub {
			sats = append(sats, t)
		}
	}
	return hub, sats, nil
}

// subQuery builds the sub-join of hub plus the satellites selected by mask,
// with their selections and join predicates.
func subQuery(q *sqlparse.Query, hub string, sats []string, mask int) (*sqlparse.Query, error) {
	in := map[string]bool{hub: true}
	tables := []string{hub}
	for i, s := range sats {
		if mask&(1<<i) != 0 {
			in[s] = true
			tables = append(tables, s)
		}
	}
	sub := &sqlparse.Query{Tables: tables}
	for _, j := range q.Joins {
		if in[j.LeftTable] && in[j.RightTable] {
			sub.Joins = append(sub.Joins, j)
		}
	}
	perTable, err := splitFilters(q)
	if err != nil {
		return nil, err
	}
	var keep []sqlparse.Expr
	for _, t := range tables {
		if e := perTable[t]; e != nil {
			keep = append(keep, e)
		}
	}
	sub.Where = sqlparse.NewAnd(keep...)
	return sub, nil
}

// singleTableQuery extracts the selection on one table as a standalone
// query, stripping the table qualifier from attribute names.
func singleTableQuery(q *sqlparse.Query, tbl string) (*sqlparse.Query, error) {
	perTable, err := splitFilters(q)
	if err != nil {
		return nil, err
	}
	sub := &sqlparse.Query{Tables: []string{tbl}}
	if e := perTable[tbl]; e != nil {
		sub.Where = sqlparse.CloneExpr(e)
	}
	return sub, nil
}

// splitFilters groups q's selection conjuncts by table.
func splitFilters(q *sqlparse.Query) (map[string]sqlparse.Expr, error) {
	single := ""
	if len(q.Tables) == 1 {
		single = q.Tables[0]
	}
	byTable := make(map[string][]sqlparse.Expr)
	for _, kid := range sqlparse.Conjuncts(q.Where) {
		tbl := ""
		for _, p := range sqlparse.CollectPreds(kid) {
			pt := tableOf(p.Attr, single)
			if pt == "" {
				return nil, fmt.Errorf("engine: unqualified attribute %q in join query", p.Attr)
			}
			if tbl == "" {
				tbl = pt
			} else if tbl != pt {
				return nil, fmt.Errorf("engine: conjunct %q spans tables", kid)
			}
		}
		byTable[tbl] = append(byTable[tbl], kid)
	}
	out := make(map[string]sqlparse.Expr, len(byTable))
	for t, kids := range byTable {
		out[t] = sqlparse.NewAnd(kids...)
	}
	return out, nil
}

func tableOf(attr, single string) string {
	for i := 0; i < len(attr); i++ {
		if attr[i] == '.' {
			return attr[:i]
		}
	}
	return single
}

// hubKeyColumn finds the hub-side join column (title.id in the IMDb star).
func hubKeyColumn(q *sqlparse.Query, hub string) (string, error) {
	for _, j := range q.Joins {
		if j.LeftTable == hub {
			return j.LeftCol, nil
		}
		if j.RightTable == hub {
			return j.RightCol, nil
		}
	}
	if len(q.Tables) == 1 {
		return "", nil
	}
	return "", fmt.Errorf("engine: no join touches hub %q", hub)
}

// satFKColumn finds the satellite-side join column.
func satFKColumn(q *sqlparse.Query, sat string) (string, error) {
	for _, j := range q.Joins {
		if j.LeftTable == sat {
			return j.LeftCol, nil
		}
		if j.RightTable == sat {
			return j.RightCol, nil
		}
	}
	return "", fmt.Errorf("engine: no join touches satellite %q", sat)
}
