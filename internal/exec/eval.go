// Package exec is the query executor of the reproduction. It evaluates the
// paper's COUNT(*) query class exactly: vectorized simple-predicate
// evaluation over column bitmaps, AND/OR combination, and exact counting of
// acyclic key/foreign-key joins via multiplicity message passing.
//
// The executor serves three roles: it labels every generated training and
// test query with its true cardinality (the paper spends 3.5 days on this
// step; Section 5.5.2), it is the ground-truth oracle against which q-errors
// are computed, and it executes the plans chosen in the end-to-end
// experiment (Table 4).
package exec

import (
	"fmt"
	"sort"
	"strings"

	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// Bind resolves the string literals of every predicate in q against the
// dictionaries of the referenced columns, rewriting each predicate into an
// equivalent integer-code predicate. After a successful Bind, no predicate
// carries a Str literal.
//
// Literals absent from a dictionary are mapped to equivalent code
// predicates: equality becomes an unsatisfiable predicate, inequality a
// tautology, and range operators snap to the literal's insertion point in
// the sorted dictionary (dictionary codes preserve lexicographic order, see
// package table). LIKE 'p%' prefix predicates become the contiguous code
// range of the prefix (the Section 6 string extension).
func Bind(q *sqlparse.Query, db *table.DB) error {
	if q.Where == nil {
		return nil
	}
	bound, err := bindExpr(q.Where, db, q)
	if err != nil {
		return err
	}
	q.Where = bound
	return nil
}

// bindExpr rewrites the string predicates under expr and returns expr
// itself — the same node, nothing allocated — when there is none. A leaf
// is never mutated (see bindStringPred), and a LIKE leaf may expand into a
// conjunction of two range predicates, so an AND/OR node with a rewritten
// child is rebuilt around its children; the rest of the tree is shared
// with the input.
func bindExpr(expr sqlparse.Expr, db *table.DB, q *sqlparse.Query) (sqlparse.Expr, error) {
	switch n := expr.(type) {
	case *sqlparse.Pred:
		if n.Str == nil {
			return n, nil
		}
		col, err := resolveColumn(db, q, n.Attr)
		if err != nil {
			return nil, err
		}
		if col.Dict == nil {
			return nil, fmt.Errorf("exec: string literal %q compared to non-string column %s", *n.Str, n.Attr)
		}
		if n.Like {
			return bindLikePred(n, col.Dict), nil
		}
		return bindStringPred(n, col.Dict), nil
	case *sqlparse.And:
		kids, err := bindKids(n.Kids, db, q)
		if err != nil {
			return nil, err
		}
		if kids == nil {
			return n, nil
		}
		return sqlparse.NewAnd(kids...), nil
	case *sqlparse.Or:
		kids, err := bindKids(n.Kids, db, q)
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

// bindKids binds every child of an AND/OR node. It returns nil when no child
// changed, otherwise a copy of kids with the rewritten children in place.
func bindKids(kids []sqlparse.Expr, db *table.DB, q *sqlparse.Query) ([]sqlparse.Expr, error) {
	var bound []sqlparse.Expr
	for i, k := range kids {
		b, err := bindExpr(k, db, q)
		if err != nil {
			return nil, err
		}
		if b == k {
			continue
		}
		if bound == nil {
			bound = append([]sqlparse.Expr(nil), kids...)
		}
		bound[i] = b
	}
	return bound, nil
}

// bindLikePred rewrites "attr LIKE 'p%'" into the code range covering all
// dictionary entries with prefix p — contiguous because the dictionary is
// sorted (Section 6). An unmatched prefix becomes an unsatisfiable
// predicate.
func bindLikePred(p *sqlparse.Pred, dict []string) sqlparse.Expr {
	prefix := *p.Str
	lo := sort.SearchStrings(dict, prefix)
	hi := lo
	for hi < len(dict) && strings.HasPrefix(dict[hi], prefix) {
		hi++
	}
	if lo == hi {
		return &sqlparse.Pred{Attr: p.Attr, Op: sqlparse.OpEq, Val: int64(len(dict))}
	}
	return sqlparse.NewAnd(
		&sqlparse.Pred{Attr: p.Attr, Op: sqlparse.OpGe, Val: int64(lo)},
		&sqlparse.Pred{Attr: p.Attr, Op: sqlparse.OpLe, Val: int64(hi - 1)},
	)
}

// bindStringPred rewrites p (whose Str is non-nil) into an equivalent
// integer-code predicate against the sorted dictionary dict. It returns a
// fresh leaf and never mutates p: a Pred node may be shared across queries
// (workload templates), and Bind runs concurrently with other queries'
// evaluation under parallel labeling.
func bindStringPred(p *sqlparse.Pred, dict []string) *sqlparse.Pred {
	s := *p.Str
	idx := sort.SearchStrings(dict, s)
	found := idx < len(dict) && dict[idx] == s
	bound := &sqlparse.Pred{Attr: p.Attr, Op: p.Op}
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

// resolveColumn finds the column a (possibly qualified) attribute refers to.
func resolveColumn(db *table.DB, q *sqlparse.Query, attr string) (*table.Column, error) {
	tblName, colName := splitAttr(attr)
	if tblName == "" {
		if len(q.Tables) != 1 {
			return nil, fmt.Errorf("exec: unqualified attribute %q in multi-table query", attr)
		}
		tblName = q.Tables[0]
	}
	t := db.Table(tblName)
	if t == nil {
		return nil, fmt.Errorf("exec: unknown table %q", tblName)
	}
	col := t.Column(colName)
	if col == nil {
		return nil, fmt.Errorf("exec: table %q has no column %q", tblName, colName)
	}
	return col, nil
}

func splitAttr(attr string) (tbl, col string) {
	if i := strings.IndexByte(attr, '.'); i >= 0 {
		return attr[:i], attr[i+1:]
	}
	return "", attr
}

// EvalPred evaluates a single simple predicate over t and returns the
// qualifying-row bitmap. The predicate must already be bound (no string
// literal). Attribute qualification, if present, must match t's name.
func EvalPred(t *table.Table, p *sqlparse.Pred) (*table.Bitmap, error) {
	if p.Str != nil {
		return nil, fmt.Errorf("exec: unbound string predicate %s (call Bind first)", p)
	}
	tblName, colName := splitAttr(p.Attr)
	if tblName != "" && tblName != t.Name {
		return nil, fmt.Errorf("exec: predicate %s does not reference table %q", p, t.Name)
	}
	col := t.Column(colName)
	if col == nil {
		return nil, fmt.Errorf("exec: table %q has no column %q", t.Name, colName)
	}
	if p.Op < sqlparse.OpEq || p.Op > sqlparse.OpGe {
		return nil, fmt.Errorf("exec: unknown operator in %s", p)
	}
	vals := col.Vals
	words := make([]uint64, (len(vals)+63)/64)
	full := len(vals) >> 6
	for wi := 0; wi < full; wi++ {
		words[wi] = predWord(p.Op, (*[64]int64)(vals[wi<<6:]), p.Val)
	}
	if full < len(words) {
		// The last rows do not fill a word: evaluate them padded with zeros.
		// Whatever the padding compares to, BitmapFromWords clears its bits.
		var tail [64]int64
		copy(tail[:], vals[full<<6:])
		words[full] = predWord(p.Op, &tail, p.Val)
	}
	return table.BitmapFromWords(words, len(vals)), nil
}

// predWord evaluates "row op lit" over 64 rows and returns the
// qualifying-row word, bit j for rows[j]. Three comparisons serve the six
// operators: <> is not =, >= is not <, > is not <=.
func predWord(op sqlparse.CmpOp, rows *[64]int64, lit int64) uint64 {
	switch op {
	case sqlparse.OpEq:
		return eqWord(rows, lit)
	case sqlparse.OpNe:
		return ^eqWord(rows, lit)
	case sqlparse.OpLt:
		return ltWord(rows, lit)
	case sqlparse.OpGe:
		return ^ltWord(rows, lit)
	case sqlparse.OpLe:
		return leWord(rows, lit)
	default: // OpGt; EvalPred has rejected anything else
		return ^leWord(rows, lit)
	}
}

// The comparison kernels. Each assembles its word in a register — eight rows
// at a time, so that every shift is by a constant — from compares the
// compiler turns into flag sets, not branches, and the caller stores it
// once. A row-at-a-time Bitmap.Set pays a bounds check and a
// read-modify-write of memory for every qualifying row, and a branch that
// mispredicts whenever the selectivity is far from 0 or 1.

func eqWord(rows *[64]int64, lit int64) (w uint64) {
	for k := 0; k < 64; k += 8 {
		r := rows[k : k+8 : k+8]
		w |= (bit(r[0] == lit) | bit(r[1] == lit)<<1 | bit(r[2] == lit)<<2 | bit(r[3] == lit)<<3 |
			bit(r[4] == lit)<<4 | bit(r[5] == lit)<<5 | bit(r[6] == lit)<<6 | bit(r[7] == lit)<<7) << (uint(k) & 63)
	}
	return w
}

func ltWord(rows *[64]int64, lit int64) (w uint64) {
	for k := 0; k < 64; k += 8 {
		r := rows[k : k+8 : k+8]
		w |= (bit(r[0] < lit) | bit(r[1] < lit)<<1 | bit(r[2] < lit)<<2 | bit(r[3] < lit)<<3 |
			bit(r[4] < lit)<<4 | bit(r[5] < lit)<<5 | bit(r[6] < lit)<<6 | bit(r[7] < lit)<<7) << (uint(k) & 63)
	}
	return w
}

func leWord(rows *[64]int64, lit int64) (w uint64) {
	for k := 0; k < 64; k += 8 {
		r := rows[k : k+8 : k+8]
		w |= (bit(r[0] <= lit) | bit(r[1] <= lit)<<1 | bit(r[2] <= lit)<<2 | bit(r[3] <= lit)<<3 |
			bit(r[4] <= lit)<<4 | bit(r[5] <= lit)<<5 | bit(r[6] <= lit)<<6 | bit(r[7] <= lit)<<7) << (uint(k) & 63)
	}
	return w
}

// bit is 1 when cond holds, else 0, without a branch.
func bit(cond bool) uint64 {
	var b uint64
	if cond {
		b = 1
	}
	return b
}

// EvalExpr evaluates a boolean selection expression over t and returns the
// qualifying-row bitmap. A nil expression qualifies every row. The returned
// bitmap is freshly allocated and owned by the caller.
func EvalExpr(t *table.Table, expr sqlparse.Expr) (*table.Bitmap, error) {
	bm, _, err := evalExpr(t, expr, nil)
	return bm, err
}

// EvalExprCached is EvalExpr with leaf bitmaps served from cache (which may
// be nil for the uncached path). The returned bitmap may be shared with the
// cache and MUST be treated as read-only by the caller.
func EvalExprCached(t *table.Table, expr sqlparse.Expr, cache *PredCache) (*table.Bitmap, error) {
	bm, _, err := evalExpr(t, expr, cache)
	return bm, err
}

// evalExpr is the shared evaluator core. It reports via owned whether the
// returned bitmap is private to the caller (true) or shared with cache
// (false); And/Or combination clones shared accumulators before mutating,
// so cached bitmaps stay immutable.
func evalExpr(t *table.Table, expr sqlparse.Expr, cache *PredCache) (bm *table.Bitmap, owned bool, err error) {
	switch n := expr.(type) {
	case nil:
		return table.NewFullBitmap(t.NumRows()), true, nil
	case *sqlparse.Pred:
		if cache != nil {
			bm, err := cache.eval(t, n)
			return bm, false, err
		}
		bm, err := EvalPred(t, n)
		return bm, true, err
	case *sqlparse.And:
		acc, owned, err := evalExpr(t, n.Kids[0], cache)
		if err != nil {
			return nil, false, err
		}
		for _, k := range n.Kids[1:] {
			bm, _, err := evalExpr(t, k, cache)
			if err != nil {
				return nil, false, err
			}
			if !owned {
				acc, owned = acc.Clone(), true
			}
			acc.And(bm)
		}
		return acc, owned, nil
	case *sqlparse.Or:
		acc, owned, err := evalExpr(t, n.Kids[0], cache)
		if err != nil {
			return nil, false, err
		}
		for _, k := range n.Kids[1:] {
			bm, _, err := evalExpr(t, k, cache)
			if err != nil {
				return nil, false, err
			}
			if !owned {
				acc, owned = acc.Clone(), true
			}
			acc.Or(bm)
		}
		return acc, owned, nil
	}
	return nil, false, fmt.Errorf("exec: unknown expr %T", expr)
}

// Selectivity returns the fraction of t's rows qualifying expr.
func Selectivity(t *table.Table, expr sqlparse.Expr) (float64, error) {
	if t.NumRows() == 0 {
		return 0, nil
	}
	bm, err := EvalExpr(t, expr)
	if err != nil {
		return 0, err
	}
	return float64(bm.Count()) / float64(t.NumRows()), nil
}
