// Package exec is the query executor of the reproduction. It evaluates the
// paper's COUNT(*) query class exactly: each per-attribute compound predicate
// as a set of its column's dictionary codes (table.Dictionary), row bitmaps
// and AND/OR over them only where a query spans columns, and exact counting
// of acyclic key/foreign-key joins via multiplicity message passing.
//
// The executor serves three roles: it labels every generated training and
// test query with its true cardinality (the paper spends 3.5 days on this
// step; Section 5.5.2), it is the ground-truth oracle against which q-errors
// are computed, and it executes the plans chosen in the end-to-end
// experiment (Table 4).
package exec

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// Bind resolves every name q uses against db and the string literals of its
// predicates against the dictionaries of the referenced columns, rewriting
// each string predicate into an equivalent integer-code predicate. Every
// table in FROM, both columns of every join and every predicate's column —
// numeric predicates included — must exist, and a qualified attribute must
// name a table in FROM: a query that names what db does not have is the
// caller's error, reported here rather than wherever an estimator or the
// executor would first trip over it. Consecutive predicates on the same
// attribute cost one lookup; a query without string literals binds without
// allocating. After a successful Bind, no predicate carries a Str literal,
// and every predicate carries its column stamp (sqlparse.Pred.Col): the one
// resolution of its name, which the featurizers read back as an integer.
//
// Literals absent from a dictionary are mapped to equivalent code
// predicates: equality becomes an unsatisfiable predicate, inequality a
// tautology, and range operators snap to the literal's insertion point in
// the sorted dictionary (dictionary codes preserve lexicographic order, see
// package table). LIKE 'p%' prefix predicates become the contiguous code
// range of the prefix (the Section 6 string extension).
func Bind(q *sqlparse.Query, db *table.DB) error {
	b := binder{db: db, q: q}
	for _, tn := range q.Tables {
		t := db.Table(tn)
		if t == nil {
			return fmt.Errorf("exec: unknown table %q", tn)
		}
		b.tblName, b.tbl = tn, t
	}
	for _, j := range q.Joins {
		if _, _, err := b.columnOf(j.LeftTable, j.LeftCol); err != nil {
			return err
		}
		if _, _, err := b.columnOf(j.RightTable, j.RightCol); err != nil {
			return err
		}
	}
	if q.Where == nil {
		return nil
	}
	bound, err := b.expr(q.Where)
	if err != nil {
		return err
	}
	if bound != q.Where { // binding a bound query writes nothing
		q.Where = bound
	}
	return nil
}

// binder binds one query's names, remembering the last table and the last
// attribute it resolved: a compound predicate names its attribute once per
// simple predicate, and those come in runs, over the one table of a
// single-table query.
type binder struct {
	db      *table.DB
	q       *sqlparse.Query
	tblName string        // the table tbl was resolved from
	tbl     *table.Table  // nil until the first resolution
	attr    string        // the attribute col was resolved from
	col     *table.Column // nil until the first resolution
	pos     int32         // col's stamp (sqlparse.Pred.Col)
	qual    bool          // attr names its table
}

// column finds the column a (possibly qualified) attribute of the query
// refers to; b.pos and b.qual then hold the attribute's stamp.
func (b *binder) column(attr string) (*table.Column, error) {
	if b.col != nil && attr == b.attr {
		return b.col, nil
	}
	tblName, colName := splitAttr(attr)
	qual := tblName != ""
	if !qual {
		if len(b.q.Tables) != 1 {
			return nil, fmt.Errorf("exec: unqualified attribute %q in multi-table query", attr)
		}
		tblName = b.q.Tables[0]
	}
	col, pos, err := b.columnOf(tblName, colName)
	if err != nil {
		return nil, err
	}
	b.attr, b.col, b.pos, b.qual = attr, col, pos, qual
	return col, nil
}

// stamp resolves the numeric leaf p and writes its stamp, where it differs.
func (b *binder) stamp(p *sqlparse.Pred) error {
	if _, err := b.column(p.Attr); err != nil {
		return err
	}
	if p.Col != b.pos || p.Qualified != b.qual {
		p.Col, p.Qualified = b.pos, b.qual
	}
	return nil
}

// stamped is a copy of p's attribute and stamp, for a leaf p is rewritten to.
func (b *binder) stamped(p *sqlparse.Pred, op sqlparse.CmpOp, val int64) *sqlparse.Pred {
	return &sqlparse.Pred{Attr: p.Attr, Op: op, Val: val, Qualified: b.qual, Col: b.pos}
}

// columnOf finds column colName of table tblName, which the query must name
// in its FROM and the database must have, and its stamp: 1 + its position.
func (b *binder) columnOf(tblName, colName string) (*table.Column, int32, error) {
	if b.tbl == nil || tblName != b.tblName {
		if !slices.Contains(b.q.Tables, tblName) {
			return nil, 0, fmt.Errorf("exec: table %q is not in the query's FROM %v", tblName, b.q.Tables)
		}
		t := b.db.Table(tblName)
		if t == nil {
			return nil, 0, fmt.Errorf("exec: unknown table %q", tblName)
		}
		b.tblName, b.tbl = tblName, t
	}
	i := b.tbl.ColumnIndex(colName)
	if i < 0 {
		return nil, 0, fmt.Errorf("exec: table %q has no column %q", tblName, colName)
	}
	return b.tbl.Columns()[i], int32(i + 1), nil
}

// expr stamps the numeric predicates under expr, rewrites the string ones,
// and returns expr itself — the same node, nothing allocated — when there is
// no string predicate. A numeric leaf is written only where its stamp
// differs (see bindStringPred for the contract); a string leaf is never
// written, and a LIKE leaf may expand into a conjunction of two range
// predicates, so an AND/OR node with a rewritten child is rebuilt around its
// children; the rest of the tree is shared with the input.
func (b *binder) expr(expr sqlparse.Expr) (sqlparse.Expr, error) {
	switch n := expr.(type) {
	case *sqlparse.Pred:
		if n.Str == nil {
			return n, b.stamp(n)
		}
		col, err := b.column(n.Attr)
		if err != nil {
			return nil, err
		}
		if col.Dict == nil {
			return nil, fmt.Errorf("exec: string literal %q compared to non-string column %s", *n.Str, n.Attr)
		}
		if n.Like {
			return b.bindLikePred(n, col.Dict), nil
		}
		return b.bindStringPred(n, col.Dict), nil
	case *sqlparse.And:
		kids, err := b.kids(n.Kids)
		if err != nil {
			return nil, err
		}
		if kids == nil {
			return n, nil
		}
		return sqlparse.NewAnd(kids...), nil
	case *sqlparse.Or:
		kids, err := b.kids(n.Kids)
		if err != nil {
			return nil, err
		}
		if kids == nil {
			return n, nil
		}
		return sqlparse.NewOr(kids...), nil
	}
	return nil, fmt.Errorf("exec: unknown expr %T", expr)
}

// kids binds every child of an AND/OR node. It returns nil when no child
// changed, otherwise a copy of kids with the rewritten children in place.
func (b *binder) kids(kids []sqlparse.Expr) ([]sqlparse.Expr, error) {
	var bound []sqlparse.Expr
	for i, k := range kids {
		if p, ok := k.(*sqlparse.Pred); ok && p.Str == nil {
			if err := b.stamp(p); err != nil {
				return nil, err
			}
			continue
		}
		e, err := b.expr(k)
		if err != nil {
			return nil, err
		}
		if e == k {
			continue
		}
		if bound == nil {
			bound = append([]sqlparse.Expr(nil), kids...)
		}
		bound[i] = e
	}
	return bound, nil
}

// bindLikePred rewrites "attr LIKE 'p%'" into the code range covering all
// dictionary entries with prefix p — contiguous because the dictionary is
// sorted (Section 6). An unmatched prefix becomes an unsatisfiable
// predicate. The new leaves carry p's stamp, which column has just resolved.
func (b *binder) bindLikePred(p *sqlparse.Pred, dict []string) sqlparse.Expr {
	prefix := *p.Str
	lo := sort.SearchStrings(dict, prefix)
	hi := lo
	for hi < len(dict) && strings.HasPrefix(dict[hi], prefix) {
		hi++
	}
	if lo == hi {
		return b.stamped(p, sqlparse.OpEq, int64(len(dict)))
	}
	return sqlparse.NewAnd(b.stamped(p, sqlparse.OpGe, int64(lo)), b.stamped(p, sqlparse.OpLe, int64(hi-1)))
}

// bindStringPred rewrites p (whose Str is non-nil) into an equivalent
// integer-code predicate against the sorted dictionary dict, carrying p's
// stamp, which column has just resolved. It returns a fresh leaf and never
// writes p.
//
// The contract for a node shared by several queries (a workload template,
// a query a cache entry keeps) is this: Bind writes nothing to a string
// leaf, and to a numeric leaf only its stamp, and only where the stamp
// differs. The stamp depends only on the table and the name, so binding a
// second query over the same table that shares the node writes nothing, and
// any number of goroutines may read, count or featurize a bound node at
// once. Binding one shared, not yet stamped node from two goroutines at once
// is a race; no caller does it: the daemon binds the query it just parsed,
// replay, cardest and the benchmark bind theirs one at a time, and the
// workload generators bind each query once, before labeling it in parallel.
func (b *binder) bindStringPred(p *sqlparse.Pred, dict []string) *sqlparse.Pred {
	s := *p.Str
	idx := sort.SearchStrings(dict, s)
	found := idx < len(dict) && dict[idx] == s
	bound := b.stamped(p, p.Op, 0)
	if found {
		bound.Val = int64(idx)
		return bound
	}
	out := int64(len(dict)) // a code no row carries
	switch p.Op {
	case sqlparse.OpEq:
		bound.Val = out // matches nothing
	case sqlparse.OpNe:
		bound.Val = out // matches everything
	case sqlparse.OpLt, sqlparse.OpLe:
		// codes < idx are exactly the strings < s (and <= s, since s itself
		// is absent).
		bound.Op, bound.Val = sqlparse.OpLt, int64(idx)
	case sqlparse.OpGt, sqlparse.OpGe:
		bound.Op, bound.Val = sqlparse.OpGe, int64(idx)
	}
	return bound
}

func splitAttr(attr string) (tbl, col string) {
	if i := strings.IndexByte(attr, '.'); i >= 0 {
		return attr[:i], attr[i+1:]
	}
	return "", attr
}

// selection is what a subtree of a selection expression evaluates to. A
// subtree whose predicates all name one column is a set of that column's
// dictionary codes — exactly the values the subtree admits — and stays one
// for as long as it is combined with more of the same column; anything
// spanning columns is a row bitmap. Every selection is freshly built and
// owned by whoever asked for it.
type selection struct {
	dict  *table.Dictionary // the one column's dictionary; nil for a row bitmap
	codes *table.Bitmap     // over dict.Values
	rows  *table.Bitmap     // set when dict is nil
}

// count is the number of qualifying rows. A code set never touches a row for
// it: the rows of codes lo..hi-1 are Offsets[hi]-Offsets[lo] many.
func (s selection) count() int {
	if s.dict == nil {
		return s.rows.Count()
	}
	off, total := s.dict.Offsets, 0
	s.codes.ForEachRun(func(lo, hi int) { total += int(off[hi] - off[lo]) })
	return total
}

// into combines the selection into acc, by AND (and) or by OR, and returns
// the result; a nil acc starts one, which is how a selection becomes a row
// bitmap. A code set gets there by visiting the rows of its codes, or, when
// more than half the rows qualify, the rows of the others: a minority is set
// in an empty bitmap or OR-ed straight into acc, the complement of a
// majority is cleared from a full bitmap or straight from acc under AND, and
// only the two remaining cases build a bitmap to combine. Either way the
// selection is consumed.
func (s selection) into(acc *table.Bitmap, and bool) *table.Bitmap {
	if s.dict == nil {
		return combine(acc, s.rows, and)
	}
	d := s.dict
	minority := 2*s.count() <= len(d.Rows)
	switch {
	case acc == nil && minority:
		acc = table.NewBitmap(len(d.Rows))
	case acc == nil:
		acc = table.NewFullBitmap(len(d.Rows))
	case and == minority:
		return combine(acc, s.into(nil, and), and)
	}
	mark := acc.SetRows
	if !minority {
		s.codes.Not()
		mark = acc.ClearRows
	}
	s.codes.ForEachRun(func(lo, hi int) { mark(d.Rows[d.Offsets[lo]:d.Offsets[hi]]) })
	return acc
}

// combine folds bm into acc in place, by AND (and) or by OR; a nil acc
// becomes bm.
func combine(acc, bm *table.Bitmap, and bool) *table.Bitmap {
	switch {
	case acc == nil:
		return bm
	case and:
		acc.And(bm)
	default:
		acc.Or(bm)
	}
	return acc
}

// EvalExpr evaluates a boolean selection expression over t and returns the
// qualifying-row bitmap. A nil expression qualifies every row. Predicates
// must already be bound (no string literal), and an attribute's table
// qualifier, if present, must match t's name. The returned bitmap is freshly
// allocated and owned by the caller.
func EvalExpr(t *table.Table, expr sqlparse.Expr) (*table.Bitmap, error) {
	if err := t.CheckRows(); err != nil {
		return nil, err
	}
	s, err := evalExpr(t, expr)
	if err != nil {
		return nil, err
	}
	return s.into(nil, true), nil
}

// countExpr is the number of t's rows qualifying expr. An expression over a
// single column — one compound predicate of the paper's query class — is
// answered from the column's dictionary alone. A table whose rows were
// dropped is an error, not zero rows.
func countExpr(t *table.Table, expr sqlparse.Expr) (int, error) {
	if err := t.CheckRows(); err != nil {
		return 0, err
	}
	s, err := evalExpr(t, expr)
	if err != nil {
		return 0, err
	}
	return s.count(), nil
}

// evalExpr is the one selection evaluator: every count, bitmap, join filter
// and label in the package comes through it.
func evalExpr(t *table.Table, expr sqlparse.Expr) (selection, error) {
	switch n := expr.(type) {
	case nil:
		return selection{rows: table.NewFullBitmap(t.NumRows())}, nil
	case *sqlparse.Pred:
		return evalPred(t, n)
	case *sqlparse.And:
		return evalNary(t, n.Kids, true)
	case *sqlparse.Or:
		return evalNary(t, n.Kids, false)
	}
	return selection{}, fmt.Errorf("exec: unknown expr %T", expr)
}

// evalPred evaluates one simple predicate as a set of its column's codes. The
// dictionary's values are distinct and ascending, so one binary search finds
// the first code whose value is >= the literal, the first whose value is >
// it is the same code or the next, and each operator admits one or two runs
// of codes bounded by those. The literal is only ever compared, never
// incremented, so the ends of the int64 range need no care.
func evalPred(t *table.Table, p *sqlparse.Pred) (selection, error) {
	if p.Str != nil {
		return selection{}, fmt.Errorf("exec: unbound string predicate %s (call Bind first)", p)
	}
	tblName, colName := splitAttr(p.Attr)
	if tblName != "" && tblName != t.Name {
		return selection{}, fmt.Errorf("exec: predicate %s does not reference table %q", p, t.Name)
	}
	col := t.Column(colName)
	if col == nil {
		return selection{}, fmt.Errorf("exec: table %q has no column %q", t.Name, colName)
	}
	if p.Op < sqlparse.OpEq || p.Op > sqlparse.OpGe {
		return selection{}, fmt.Errorf("exec: unknown operator in %s", p)
	}
	d := col.Dictionary()
	n := len(d.Values)
	ge, found := slices.BinarySearch(d.Values, p.Val)
	gt := ge
	if found {
		gt++
	}
	codes := table.NewBitmap(n)
	switch p.Op {
	case sqlparse.OpEq:
		codes.SetRange(ge, gt)
	case sqlparse.OpNe:
		codes.SetRange(0, ge)
		codes.SetRange(gt, n)
	case sqlparse.OpLt:
		codes.SetRange(0, ge)
	case sqlparse.OpLe:
		codes.SetRange(0, gt)
	case sqlparse.OpGt:
		codes.SetRange(gt, n)
	case sqlparse.OpGe:
		codes.SetRange(ge, n)
	}
	return selection{dict: d, codes: codes}, nil
}

// evalNary combines the children of an AND (and) or OR node. Children over
// the same column are combined code set with code set, wherever they stand
// among the others — AND and OR commute — so a compound predicate on one
// attribute costs words of its dictionary, not of the table, even after
// NewAnd has flattened it into its parent. Only when the node spans columns
// do the per-column sets become row bitmaps. The same column is the same
// dictionary: were one dropped and rebuilt between two children, they would
// meet as row bitmaps instead, and no two code sets over different domains
// are ever combined. Children are evaluated in order and the first error
// wins.
func evalNary(t *table.Table, kids []sqlparse.Expr, and bool) (selection, error) {
	if len(kids) == 0 {
		return selection{}, fmt.Errorf("exec: AND/OR node without children")
	}
	cols := make([]selection, 0, 8) // one code set per column some child names alone
	var rows *table.Bitmap          // the children spanning columns, combined
kids:
	for _, k := range kids {
		s, err := evalExpr(t, k)
		if err != nil {
			return selection{}, err
		}
		if s.dict == nil {
			rows = combine(rows, s.rows, and)
			continue
		}
		for _, c := range cols {
			if c.dict == s.dict {
				combine(c.codes, s.codes, and)
				continue kids
			}
		}
		cols = append(cols, s)
	}
	if rows == nil && len(cols) == 1 {
		return cols[0], nil
	}
	for _, c := range cols {
		rows = c.into(rows, and)
	}
	return selection{rows: rows}, nil
}
