package exec

import (
	"context"
	"fmt"

	"qfe/internal/parallel"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// Count executes the COUNT(*) query q exactly and returns the true result
// cardinality. Single-table queries reduce to bitmap evaluation; multi-table
// queries must join along an acyclic set of equi-join predicates (the
// key/foreign-key trees of the paper's workloads) and are counted by
// multiplicity message passing over the join tree, never materializing the
// join result.
//
// Queries with string literals must be Bind-ed first.
func Count(db *table.DB, q *sqlparse.Query) (int64, error) {
	return countCtx(context.Background(), db, q)
}

// countCtx is Count under a context: cancellation is checked before each
// per-table evaluation step, so a deadline bounds the work at table
// granularity rather than letting a large join run to completion.
func countCtx(ctx context.Context, db *table.DB, q *sqlparse.Query) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if len(q.Tables) == 0 {
		return 0, fmt.Errorf("exec: query has no tables")
	}
	if len(q.Tables) == 1 {
		t := db.Table(q.Tables[0])
		if t == nil {
			return 0, fmt.Errorf("exec: unknown table %q", q.Tables[0])
		}
		n, err := countExpr(t, q.Where)
		return int64(n), err
	}
	return countJoin(ctx, db, q)
}

// perTableFilters splits the top-level conjunction of q.Where into
// per-table selection expressions. Every conjunct must reference attributes
// of exactly one table; disjunctions across tables are outside the paper's
// query class.
func perTableFilters(q *sqlparse.Query) (map[string]sqlparse.Expr, error) {
	byTable := make(map[string][]sqlparse.Expr)
	for _, kid := range sqlparse.Conjuncts(q.Where) {
		tbl := ""
		for _, p := range sqlparse.CollectPreds(kid) {
			pt, _ := splitAttr(p.Attr)
			if pt == "" {
				return nil, fmt.Errorf("exec: unqualified attribute %q in join query", p.Attr)
			}
			if tbl == "" {
				tbl = pt
			} else if tbl != pt {
				return nil, fmt.Errorf("exec: conjunct %q spans tables %q and %q", kid, tbl, pt)
			}
		}
		if tbl == "" {
			return nil, fmt.Errorf("exec: conjunct %q references no attribute", kid)
		}
		byTable[tbl] = append(byTable[tbl], kid)
	}
	out := make(map[string]sqlparse.Expr, len(byTable))
	for tbl, kids := range byTable {
		out[tbl] = sqlparse.NewAnd(kids...)
	}
	return out, nil
}

// joinTreeNode is one table in the join tree with the join edges to its
// children and, except for the root, the column connecting it to its parent.
type joinTreeNode struct {
	tbl       string
	parentCol string // column of this table equated with the parent
	children  []*joinTreeNode
	childCols []string // column of this table equated with each child
}

// buildJoinTree arranges q's tables into a tree rooted at q.Tables[0] using
// the equi-join predicates. It returns an error when the join graph is
// disconnected or cyclic — the message-passing counter is exact only for
// acyclic joins, which covers every workload in the paper.
func buildJoinTree(q *sqlparse.Query) (*joinTreeNode, error) {
	if len(q.Joins) != len(q.Tables)-1 {
		return nil, fmt.Errorf("exec: %d tables need exactly %d join predicates for an acyclic join, got %d",
			len(q.Tables), len(q.Tables)-1, len(q.Joins))
	}
	type edge struct {
		other           string
		myCol, otherCol string
	}
	adj := make(map[string][]edge, len(q.Tables))
	for _, j := range q.Joins {
		adj[j.LeftTable] = append(adj[j.LeftTable], edge{other: j.RightTable, myCol: j.LeftCol, otherCol: j.RightCol})
		adj[j.RightTable] = append(adj[j.RightTable], edge{other: j.LeftTable, myCol: j.RightCol, otherCol: j.LeftCol})
	}
	root := &joinTreeNode{tbl: q.Tables[0]}
	visited := map[string]bool{root.tbl: true}
	var build func(node *joinTreeNode) error
	build = func(node *joinTreeNode) error {
		for _, e := range adj[node.tbl] {
			if visited[e.other] {
				continue
			}
			visited[e.other] = true
			child := &joinTreeNode{tbl: e.other, parentCol: e.otherCol}
			node.children = append(node.children, child)
			node.childCols = append(node.childCols, e.myCol)
			if err := build(child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := build(root); err != nil {
		return nil, err
	}
	if len(visited) != len(q.Tables) {
		return nil, fmt.Errorf("exec: join graph of %v is disconnected", q.Tables)
	}
	return root, nil
}

// countJoin counts an acyclic equi-join bottom-up: each node sends its
// parent a map from join-key value to the number of join-result tuples its
// subtree contributes for that key; the root sums the products over its
// qualifying rows.
func countJoin(ctx context.Context, db *table.DB, q *sqlparse.Query) (int64, error) {
	filters, err := perTableFilters(q)
	if err != nil {
		return 0, err
	}
	root, err := buildJoinTree(q)
	if err != nil {
		return 0, err
	}

	// upward computes the multiplicity message from node to its parent.
	var upward func(node *joinTreeNode) (map[int64]int64, error)

	// subtreeMults returns, per qualifying row of node's table, the product
	// of the children's multiplicities (0 rows are skipped via callback).
	rowMults := func(node *joinTreeNode, visit func(row int, mult int64)) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := db.Table(node.tbl)
		if t == nil {
			return fmt.Errorf("exec: unknown table %q", node.tbl)
		}
		bm, err := EvalExpr(t, filters[node.tbl])
		if err != nil {
			return err
		}
		childMsgs := make([]map[int64]int64, len(node.children))
		childVals := make([][]int64, len(node.children))
		for i, c := range node.children {
			msg, err := upward(c)
			if err != nil {
				return err
			}
			childMsgs[i] = msg
			col := t.Column(node.childCols[i])
			if col == nil {
				return fmt.Errorf("exec: table %q has no join column %q", node.tbl, node.childCols[i])
			}
			childVals[i] = col.Vals
		}
		bm.ForEach(func(r int) {
			mult := int64(1)
			for i := range node.children {
				m := childMsgs[i][childVals[i][r]]
				if m == 0 {
					mult = 0
					break
				}
				mult *= m
			}
			if mult != 0 {
				visit(r, mult)
			}
		})
		return nil
	}

	upward = func(node *joinTreeNode) (map[int64]int64, error) {
		t := db.Table(node.tbl)
		if t == nil {
			return nil, fmt.Errorf("exec: unknown table %q", node.tbl)
		}
		keyCol := t.Column(node.parentCol)
		if keyCol == nil {
			return nil, fmt.Errorf("exec: table %q has no join column %q", node.tbl, node.parentCol)
		}
		msg := make(map[int64]int64)
		err := rowMults(node, func(r int, mult int64) {
			msg[keyCol.Vals[r]] += mult
		})
		if err != nil {
			return nil, err
		}
		return msg, nil
	}

	var total int64
	err = rowMults(root, func(_ int, mult int64) { total += mult })
	if err != nil {
		return 0, err
	}
	return total, nil
}

// QueryError reports the failure of one query inside a labeling batch,
// carrying the query's index so callers can keep the labels that did
// compute and resume or skip precisely.
type QueryError struct {
	// Index is the position of the failing query in the batch.
	Index int
	// Query is the failing query's SQL rendering.
	Query string
	// Err is the underlying failure.
	Err error
}

func (e *QueryError) Error() string {
	return fmt.Sprintf("exec: query %d (%s): %v", e.Index, e.Query, e.Err)
}

func (e *QueryError) Unwrap() error { return e.Err }

// CountManyCtx labels a batch of queries with their true cardinalities
// across one worker per logical CPU. It is the workhorse behind workload
// labeling — the step the paper spends 3.5 days on (Section 5.5.2); queries
// must already be bound.
//
// The returned slice always has len(qs): out[i] is query i's cardinality,
// or -1 where query i failed. A non-nil error is a *QueryError describing
// the failure with the smallest index — deterministic regardless of worker
// scheduling, because every query is attempted even after another fails
// (only context cancellation stops the batch early). Labels are
// bit-identical to sequential execution: each query's count is exact and
// independent, and parallelism never reorders per-query computation.
func CountManyCtx(ctx context.Context, db *table.DB, qs []*sqlparse.Query) ([]int64, error) {
	return CountManyWorkers(ctx, db, qs, 0)
}

// CountManyWorkers is CountManyCtx with an explicit worker count
// (workers < 1 means GOMAXPROCS).
func CountManyWorkers(ctx context.Context, db *table.DB, qs []*sqlparse.Query, workers int) ([]int64, error) {
	out := make([]int64, len(qs))
	errs := make([]error, len(qs))
	parallel.Do(len(qs), parallel.Workers(workers), func(i int) {
		out[i], errs[i] = countCtx(ctx, db, qs[i])
		if errs[i] != nil {
			out[i] = -1
		}
	})
	for i, err := range errs {
		if err != nil {
			return out, &QueryError{Index: i, Query: qs[i].String(), Err: err}
		}
	}
	return out, nil
}
