package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// The evaluator as it was before dictionary evaluation, kept as the oracle
// the dictionary is held to: every simple predicate scans its whole column
// through the word kernels, and AND/OR combine row bitmaps leaf by leaf. It
// shares no code with evalExpr beyond splitAttr and the Bitmap type.

// evalPredKernels is the retired EvalPred: 64 rows to a word, one word
// stored per 64 rows, the tail evaluated padded with zeros.
func evalPredKernels(t *table.Table, p *sqlparse.Pred) (*table.Bitmap, error) {
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
		var tail [64]int64
		copy(tail[:], vals[full<<6:])
		words[full] = predWord(p.Op, &tail, p.Val)
	}
	return table.BitmapFromWords(words, len(vals)), nil
}

// predWord evaluates "row op lit" over 64 rows, bit j for rows[j]. Three
// comparisons serve the six operators: <> is not =, >= is not <, > is not <=.
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
	default: // OpGt
		return ^leWord(rows, lit)
	}
}

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

func bit(cond bool) uint64 {
	var b uint64
	if cond {
		b = 1
	}
	return b
}

// evalExprKernels is the retired evalExpr without its cache: a kernel scan
// per leaf, the first child's bitmap as accumulator, And/Or over the rest.
func evalExprKernels(t *table.Table, expr sqlparse.Expr) (*table.Bitmap, error) {
	var kids []sqlparse.Expr
	var and bool
	switch n := expr.(type) {
	case nil:
		return table.NewFullBitmap(t.NumRows()), nil
	case *sqlparse.Pred:
		return evalPredKernels(t, n)
	case *sqlparse.And:
		kids, and = n.Kids, true
	case *sqlparse.Or:
		kids = n.Kids
	default:
		return nil, fmt.Errorf("exec: unknown expr %T", expr)
	}
	acc, err := evalExprKernels(t, kids[0])
	if err != nil {
		return nil, err
	}
	for _, k := range kids[1:] {
		bm, err := evalExprKernels(t, k)
		if err != nil {
			return nil, err
		}
		if and {
			acc.And(bm)
		} else {
			acc.Or(bm)
		}
	}
	return acc, nil
}

// countKernels is Count on the retired evaluator. A single-table query is the
// population count of its kernel bitmap. A join is counted over a copy of the
// database that holds, of every table, only the rows the kernels qualify, by
// the query stripped of its selections — so the message passing under test
// reads no filter at all, and what it is compared on is the filtering.
func countKernels(db *table.DB, q *sqlparse.Query) (int64, error) {
	if len(q.Tables) == 1 {
		t := db.Table(q.Tables[0])
		if t == nil {
			return 0, fmt.Errorf("exec: unknown table %q", q.Tables[0])
		}
		bm, err := evalExprKernels(t, q.Where)
		if err != nil {
			return 0, err
		}
		return int64(bm.Count()), nil
	}
	filters, err := perTableFilters(q)
	if err != nil {
		return 0, err
	}
	filtered := table.NewDB()
	for _, name := range q.Tables {
		t := db.Table(name)
		if t == nil {
			return 0, fmt.Errorf("exec: unknown table %q", name)
		}
		bm, err := evalExprKernels(t, filters[name])
		if err != nil {
			return 0, err
		}
		keep := bm.Indices()
		ft := table.New(name)
		for _, col := range t.Columns() {
			vals := make([]int64, len(keep))
			for i, r := range keep {
				vals[i] = col.Vals[r]
			}
			ft.MustAddColumn(table.NewColumn(col.Name, vals))
		}
		filtered.MustAdd(ft)
	}
	return Count(filtered, &sqlparse.Query{Tables: q.Tables, Joins: q.Joins})
}

// evalPredOracle is the row-at-a-time reference both evaluators answer to: one
// compare-and-branch and one Bitmap.Set per qualifying row.
func evalPredOracle(col *table.Column, op sqlparse.CmpOp, lit int64) *table.Bitmap {
	bm := table.NewBitmap(col.Len())
	for i, v := range col.Vals {
		var ok bool
		switch op {
		case sqlparse.OpEq:
			ok = v == lit
		case sqlparse.OpNe:
			ok = v != lit
		case sqlparse.OpLt:
			ok = v < lit
		case sqlparse.OpLe:
			ok = v <= lit
		case sqlparse.OpGt:
			ok = v > lit
		case sqlparse.OpGe:
			ok = v >= lit
		}
		if ok {
			bm.Set(i)
		}
	}
	return bm
}

var allOps = []sqlparse.CmpOp{sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe}

// sameBitmap fails unless got and want agree row by row and in Count. Equal
// bits plus an equal Count pin the whole word slice: Count sums every word,
// so a bit left set past the last row — what a complemented set produces
// before its tail is cleared — shows up there and nowhere else.
func sameBitmap(t *testing.T, name string, got, want *table.Bitmap) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: bitmap over %d rows, want %d", name, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.Get(i) != want.Get(i) {
			t.Fatalf("%s: row %d is %v, oracle %v", name, i, got.Get(i), want.Get(i))
		}
	}
	if got.Count() != want.Count() {
		t.Fatalf("%s: Count %d, oracle %d — bits set past the last row", name, got.Count(), want.Count())
	}
}

// TestEvalPredMatchesRowAtATimeOracle holds a one-leaf evaluation — bitmap
// and count — to the row-at-a-time oracle and to the retired kernels: every
// operator; lengths either side of each word boundary; a literal below the
// minimum, at it, between two values the column holds, at the maximum, above
// it, and at both ends of int64; and the column shapes that are the
// dictionary's corner cases — one value, two, and as many as rows, besides a
// random one. Values are even, so that an odd literal falls between two of
// them, and span zero, the padding the kernels' tail was evaluated with.
func TestEvalPredMatchesRowAtATimeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct {
		name string
		val  func(i int) int64
	}{
		{"random", func(int) int64 { return 2 * (int64(rng.Intn(21)) - 10) }},
		{"constant", func(int) int64 { return 4 }},
		{"binary", func(int) int64 { return 2 * int64(rng.Intn(2)) }},
		{"distinct", func(i int) int64 { return 2 * int64((i*7919)%20_011-10_000) }}, // a permutation of 20 011 even values
	}
	for _, shape := range shapes {
		for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 20_000} {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = shape.val(i)
			}
			tbl := table.New("t")
			col := table.NewColumn("a", vals)
			tbl.MustAddColumn(col)
			lits := []int64{math.MinInt64, math.MaxInt64, 0, 1}
			if n > 0 {
				mn, mx := col.Min(), col.Max()
				lits = append(lits, mn-1, mn, mn+1, mx-1, mx, mx+1)
			}
			for _, op := range allOps {
				for _, lit := range lits {
					name := fmt.Sprintf("%s n=%d a %s %d", shape.name, n, op, lit)
					p := &sqlparse.Pred{Attr: "a", Op: op, Val: lit}
					got, err := EvalExpr(tbl, p)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want := evalPredOracle(col, op, lit)
					sameBitmap(t, name, got, want)
					kernels, err := evalPredKernels(tbl, p)
					if err != nil {
						t.Fatalf("%s: kernels: %v", name, err)
					}
					sameBitmap(t, name+" (kernels)", kernels, want)
					if c, err := countExpr(tbl, p); err != nil || c != want.Count() {
						t.Fatalf("%s: count from the dictionary %d, %v; oracle %d", name, c, err, want.Count())
					}
				}
			}
		}
	}
}

func TestEvalPredRejectsUnknownOperator(t *testing.T) {
	for _, op := range []sqlparse.CmpOp{-1, sqlparse.OpGe + 1} {
		if _, err := EvalExpr(smallTable(), &sqlparse.Pred{Attr: "a", Op: op, Val: 1}); err == nil {
			t.Errorf("operator %d accepted", int(op))
		}
	}
}
