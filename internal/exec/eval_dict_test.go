package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// shapesTable has one column of each shape the dictionary treats differently
// — many values, one, two, as many as rows — and a string column over a
// small vocabulary, all n rows long.
func shapesTable(rng *rand.Rand, n int) *table.Table {
	words := []string{"apex", "apogee", "apollo", "banana", "cedar", "zebra"}
	a, k, b, d := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	s := make([]string, n)
	for i := 0; i < n; i++ {
		a[i] = 2 * (int64(rng.Intn(31)) - 15)
		k[i] = 6
		b[i] = int64(rng.Intn(2))
		d[i] = int64((i * 7919) % 20_011)
		s[i] = words[rng.Intn(len(words))]
	}
	t := table.New("t")
	t.MustAddColumn(table.NewColumn("a", a))
	t.MustAddColumn(table.NewColumn("k", k))
	t.MustAddColumn(table.NewColumn("b", b))
	t.MustAddColumn(table.NewColumn("d", d))
	t.MustAddColumn(table.NewStringColumn("s", s))
	return t
}

// randomExpr draws a selection expression over shapesTable's integer columns:
// leaves with literals inside and just outside each column's domain, AND/OR
// nodes of two to four children, nested to depth. Built with the node
// literals, not NewAnd/NewOr, so that an AND directly under an AND survives.
func randomExpr(rng *rand.Rand, depth int) sqlparse.Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		col := []struct {
			name   string
			lo, hi int
		}{{"a", -32, 32}, {"k", 4, 8}, {"b", -1, 2}, {"d", -1, 20_012}}[rng.Intn(4)]
		attr := col.name
		if rng.Intn(4) == 0 {
			attr = "t." + attr
		}
		return &sqlparse.Pred{Attr: attr, Op: allOps[rng.Intn(len(allOps))], Val: int64(col.lo + rng.Intn(col.hi-col.lo+1))}
	}
	kids := make([]sqlparse.Expr, 2+rng.Intn(3))
	for i := range kids {
		kids[i] = randomExpr(rng, depth-1)
	}
	if rng.Intn(2) == 0 {
		return &sqlparse.And{Kids: kids}
	}
	return &sqlparse.Or{Kids: kids}
}

// rowOf is row r of tbl in the shape bruteEval reads, every column under its
// bare and its qualified name.
func rowOf(tbl *table.Table, r int) map[string]int64 {
	row := make(map[string]int64, 2*tbl.NumCols())
	for _, c := range tbl.Columns() {
		row[c.Name] = c.Vals[r]
		row[tbl.Name+"."+c.Name] = c.Vals[r]
	}
	return row
}

// sameAsOracles evaluates expr three ways — the dictionary evaluator, the
// retired kernels, a row-at-a-time interpreter — and fails unless the three
// bitmaps are one, countExpr agrees, and an error from one is the same error
// from the other.
func sameAsOracles(t *testing.T, name string, tbl *table.Table, expr sqlparse.Expr) {
	t.Helper()
	want, wantErr := evalExprKernels(tbl, expr)
	got, err := EvalExpr(tbl, expr)
	count, countErr := countExpr(tbl, expr)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() || countErr == nil || countErr.Error() != wantErr.Error() {
			t.Fatalf("%s: errors %v and %v, kernels %v", name, err, countErr, wantErr)
		}
		return
	}
	if err != nil || countErr != nil {
		t.Fatalf("%s: %v, %v; the kernels evaluate it", name, err, countErr)
	}
	sameBitmap(t, name, got, want)
	if count != want.Count() {
		t.Fatalf("%s: count %d, kernels %d", name, count, want.Count())
	}
	if expr == nil {
		return
	}
	for r := 0; r < tbl.NumRows(); r++ {
		if got.Get(r) != bruteEval(expr, rowOf(tbl, r)) {
			t.Fatalf("%s: row %d is %v, row at a time %v", name, r, got.Get(r), !got.Get(r))
		}
	}
}

// TestEvalExprMatchesKernelsAndRows: nil, nested, same-column and
// cross-column AND/OR over every column shape, on tables either side of each
// 64-row boundary.
func TestEvalExprMatchesKernelsAndRows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129, 1000} {
		tbl := shapesTable(rng, n)
		sameAsOracles(t, fmt.Sprintf("n=%d no WHERE", n), tbl, nil)
		for trial := 0; trial < 60; trial++ {
			expr := randomExpr(rng, 1+trial%4)
			sameAsOracles(t, fmt.Sprintf("n=%d %s", n, expr), tbl, expr)
		}
	}
}

// TestBoundStringPredicatesMatchStrings: every operator against literals the
// column holds, literals between, below and above them — Bind turns those
// into the code no row carries, or snaps them to an insertion point — and
// LIKE prefixes matching some, all and none; the count must be the one
// comparing the strings themselves gives.
func TestBoundStringPredicatesMatchStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	tbl := shapesTable(rng, 500)
	db := singleDB(tbl)
	col := tbl.Column("s")
	cmp := func(op sqlparse.CmpOp, s, lit string) bool {
		switch op {
		case sqlparse.OpEq:
			return s == lit
		case sqlparse.OpNe:
			return s != lit
		case sqlparse.OpLt:
			return s < lit
		case sqlparse.OpLe:
			return s <= lit
		case sqlparse.OpGt:
			return s > lit
		default:
			return s >= lit
		}
	}
	check := func(p *sqlparse.Pred, holds func(s string) bool) {
		t.Helper()
		q := &sqlparse.Query{Tables: []string{"t"}, Where: p}
		if err := Bind(q, db); err != nil {
			t.Fatalf("%s: bind: %v", p, err)
		}
		want := 0
		for _, code := range col.Vals {
			if holds(col.Dict[code]) {
				want++
			}
		}
		got, err := Count(db, q)
		if err != nil || got != int64(want) {
			t.Fatalf("%s, bound to %s: count %d, %v; comparing strings gives %d", p, q.Where, got, err, want)
		}
		sameAsOracles(t, p.String(), tbl, q.Where)
	}
	for _, lit := range []string{"", "aaa", "apex", "apollo", "apricot", "banana", "cedar", "m", "zebra", "zz"} {
		for _, op := range allOps {
			check(&sqlparse.Pred{Attr: "s", Op: op, Str: &lit}, func(s string) bool { return cmp(op, s, lit) })
		}
	}
	for _, prefix := range []string{"", "a", "ap", "apo", "apex", "apexx", "b", "q", "zebra", "zz"} {
		check(&sqlparse.Pred{Attr: "s", Op: sqlparse.OpEq, Like: true, Str: &prefix},
			func(s string) bool { return strings.HasPrefix(s, prefix) })
	}
}

// TestEvalErrorsMatchKernels: every validation error of the retired
// evaluator survives, word for word, wherever in the tree the bad leaf
// stands — children are evaluated in order and the first error wins, as
// before — and an AND/OR node nothing can build, one without children, is an
// error where it used to be a panic.
func TestEvalErrorsMatchKernels(t *testing.T) {
	tbl := shapesTable(rand.New(rand.NewSource(23)), 100)
	str := "x"
	good := &sqlparse.Pred{Attr: "a", Op: sqlparse.OpLe, Val: 3}
	other := &sqlparse.Pred{Attr: "b", Op: sqlparse.OpEq, Val: 1}
	for name, bad := range map[string]*sqlparse.Pred{
		"unbound string":   {Attr: "s", Op: sqlparse.OpEq, Str: &str},
		"wrong qualifier":  {Attr: "u.a", Op: sqlparse.OpEq, Val: 1},
		"unknown column":   {Attr: "nosuch", Op: sqlparse.OpEq, Val: 1},
		"unknown operator": {Attr: "a", Op: sqlparse.OpGe + 1, Val: 1},
	} {
		worse := &sqlparse.Pred{Attr: "alsonot", Op: sqlparse.OpEq, Val: 1}
		for where, expr := range map[string]sqlparse.Expr{
			"alone":       bad,
			"first":       &sqlparse.And{Kids: []sqlparse.Expr{bad, good, worse}},
			"last":        &sqlparse.Or{Kids: []sqlparse.Expr{good, other, bad}},
			"same column": &sqlparse.And{Kids: []sqlparse.Expr{good, bad}},
			"nested":      &sqlparse.And{Kids: []sqlparse.Expr{other, &sqlparse.Or{Kids: []sqlparse.Expr{good, bad}}, worse}},
		} {
			if _, err := EvalExpr(tbl, expr); err == nil {
				t.Errorf("%s, %s: accepted", name, where)
			}
			sameAsOracles(t, name+", "+where, tbl, expr)
		}
	}
	for _, empty := range []sqlparse.Expr{&sqlparse.And{}, &sqlparse.Or{Kids: []sqlparse.Expr{}}} {
		if _, err := EvalExpr(tbl, empty); err == nil {
			t.Errorf("%T without children accepted", empty)
		}
	}
}

// TestCountOnColdColumnFromManyGoroutines: N goroutines count on a table no
// one has touched, as labeling workers do at boot; the first to reach a
// column builds its dictionary while the others wait for it. Run under -race
// (make check) this is the test of that hand-over.
func TestCountOnColdColumnFromManyGoroutines(t *testing.T) {
	tbl := genTable(31, 20_000)
	db := singleDB(tbl)
	qs := genQueries(32, 16)
	want := make([]int64, len(qs))
	for i, q := range qs {
		bm, err := evalExprKernels(tbl, q.Where)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = int64(bm.Count())
	}
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := Count(db, q); err != nil || got != want[i] {
				t.Errorf("query %d: count %d, %v; kernels %d", i, got, err, want[i])
			}
		}()
	}
	wg.Wait()
	if built, _ := tbl.DictionaryBuilds(); built != 3 {
		t.Errorf("%d dictionaries built for 3 columns", built)
	}
}

// TestCountSeesDataAfterInvalidate: a count is taken on the dictionary, so a
// column whose values changed must be invalidated — and then the next count
// is of the new data.
func TestCountSeesDataAfterInvalidate(t *testing.T) {
	tbl := smallTable()
	db := singleDB(tbl)
	q := sqlparse.MustParse("SELECT count(*) FROM t WHERE a >= 9 AND b = 9")
	if got, err := Count(db, q); err != nil || got != 2 {
		t.Fatalf("count = %d, %v; want 2", got, err)
	}
	col := tbl.Column("a")
	for i := range col.Vals {
		col.Vals[i] += 5
	}
	col.InvalidateStats()
	if got, err := Count(db, q); err != nil || got != 4 {
		t.Errorf("count after the column moved up by 5 = %d, %v; want 4", got, err)
	}
	sameAsOracles(t, "after invalidate", tbl, q.Where)
}

// FuzzEvalExpr holds the dictionary evaluator to the kernels and to the
// row-at-a-time interpreter on whatever selection sqlparse makes of the
// input: a statement that parses, names table t alone and binds is evaluated
// all three ways.
func FuzzEvalExpr(f *testing.F) {
	for _, where := range []string{
		"a <= 3",
		"a >= -4 AND a <= 10 AND a <> 2 AND a <> 4",
		"(a < -9223372036854775807 OR a > 9223372036854775806) AND b = 1",
		"(a <= -6 OR a >= 6) AND (d < 100 OR d > 19000) AND k = 6",
		"t.a = 2 OR (t.b = 0 AND (d >= 5000 OR t.a < 0))",
		"s = 'apex' OR s LIKE 'ap%' AND s <> 'apricot'",
		"s >= 'b' AND s < 'm' OR k <> 6",
		"nosuch = 1 OR a = 1",
	} {
		f.Add("SELECT count(*) FROM t WHERE " + where)
	}
	f.Add("SELECT count(*) FROM t")
	tbl := shapesTable(rand.New(rand.NewSource(29)), 200)
	db := singleDB(tbl)
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := sqlparse.Parse(sql)
		if err != nil || len(q.Tables) != 1 || q.Tables[0] != "t" {
			return
		}
		if err := Bind(q, db); err != nil {
			return
		}
		sameAsOracles(t, sql, tbl, q.Where)
	})
}
