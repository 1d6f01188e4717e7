package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// evalPredOracle is EvalPred as it was before the word kernels: one
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

// TestEvalPredMatchesRowAtATimeOracle holds the kernels to the oracle on
// every operator, on lengths either side of each word boundary and on
// literals either side of each end of the domain. Equal bits row by row plus
// an equal Count pin the whole word slice: Count sums every word, so a bit
// left set past the last row — what the negated operators produce before
// the tail is cleared — shows up there and nowhere else.
func TestEvalPredMatchesRowAtATimeOracle(t *testing.T) {
	ops := []sqlparse.CmpOp{sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 20_000} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(41)) - 20 // negative values and 0, the tail's padding, included
		}
		tbl := table.New("t")
		col := table.NewColumn("a", vals)
		tbl.MustAddColumn(col)
		lits := []int64{-21, -20, 0, 20, 21, math.MinInt64, math.MaxInt64}
		for _, op := range ops {
			for _, lit := range lits {
				name := fmt.Sprintf("n=%d a %s %d", n, op, lit)
				got, err := EvalPred(tbl, &sqlparse.Pred{Attr: "a", Op: op, Val: lit})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want := evalPredOracle(col, op, lit)
				if got.Len() != n {
					t.Fatalf("%s: bitmap over %d rows", name, got.Len())
				}
				for i := 0; i < n; i++ {
					if got.Get(i) != want.Get(i) {
						t.Fatalf("%s: row %d (value %d) is %v, oracle %v", name, i, vals[i], got.Get(i), want.Get(i))
					}
				}
				if got.Count() != want.Count() {
					t.Fatalf("%s: Count %d, oracle %d — bits set past the last row", name, got.Count(), want.Count())
				}
			}
		}
	}
}

func TestEvalPredRejectsUnknownOperator(t *testing.T) {
	for _, op := range []sqlparse.CmpOp{-1, sqlparse.OpGe + 1} {
		if _, err := EvalPred(smallTable(), &sqlparse.Pred{Attr: "a", Op: op, Val: 1}); err == nil {
			t.Errorf("operator %d accepted", int(op))
		}
	}
}
