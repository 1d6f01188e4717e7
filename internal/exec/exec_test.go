package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// smallTable builds a deterministic single table for hand-checked cases.
func smallTable() *table.Table {
	t := table.New("t")
	t.MustAddColumn(table.NewColumn("a", []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}))
	t.MustAddColumn(table.NewColumn("b", []int64{5, 5, 5, 0, 0, 0, 9, 9, 9, 9}))
	return t
}

func singleDB(t *table.Table) *table.DB {
	db := table.NewDB()
	db.MustAdd(t)
	return db
}

func TestEvalPredOperators(t *testing.T) {
	tbl := smallTable()
	cases := []struct {
		src  string
		want int
	}{
		{"a = 5", 1},
		{"a <> 5", 9},
		{"a < 5", 4},
		{"a <= 5", 5},
		{"a > 5", 5},
		{"a >= 5", 6},
		{"b = 9", 4},
		{"a > 100", 0},
		{"a < -5", 0},
		{"a >= 1", 10},
	}
	for _, tc := range cases {
		q := sqlparse.MustParse("SELECT count(*) FROM t WHERE " + tc.src)
		bm, err := EvalExpr(tbl, q.Where)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got := bm.Count(); got != tc.want {
			t.Errorf("%s: count = %d, want %d", tc.src, got, tc.want)
		}
	}
}

func TestEvalExprBoolean(t *testing.T) {
	tbl := smallTable()
	cases := []struct {
		src  string
		want int64
	}{
		{"a <= 3 AND b = 5", 3},
		{"a <= 3 OR b = 9", 7},
		{"(a = 1 OR a = 10) AND b = 9", 1},
		{"a >= 2 AND a <= 4 AND a <> 3", 2},
	}
	for _, tc := range cases {
		q := sqlparse.MustParse("SELECT count(*) FROM t WHERE " + tc.src)
		got, err := Count(singleDB(tbl), q)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got != tc.want {
			t.Errorf("%s: count = %d, want %d", tc.src, got, tc.want)
		}
	}
}

func TestCountNoWhere(t *testing.T) {
	got, err := Count(singleDB(smallTable()), sqlparse.MustParse("SELECT count(*) FROM t"))
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Errorf("count = %d, want 10", got)
	}
}

func TestSelectivity(t *testing.T) {
	tbl := smallTable()
	q := sqlparse.MustParse("SELECT count(*) FROM t WHERE a <= 5")
	sel, err := Selectivity(tbl, q.Where)
	if err != nil {
		t.Fatal(err)
	}
	if sel != 0.5 {
		t.Errorf("selectivity = %v, want 0.5", sel)
	}
}

func TestEvalErrors(t *testing.T) {
	tbl := smallTable()
	if _, err := EvalExpr(tbl, &sqlparse.Pred{Attr: "missing", Op: sqlparse.OpEq, Val: 1}); err == nil {
		t.Error("expected error for unknown column")
	}
	s := "x"
	if _, err := EvalExpr(tbl, &sqlparse.Pred{Attr: "a", Op: sqlparse.OpEq, Str: &s}); err == nil {
		t.Error("expected error for unbound string predicate")
	}
	if _, err := EvalExpr(tbl, &sqlparse.Pred{Attr: "other.a", Op: sqlparse.OpEq, Val: 1}); err == nil {
		t.Error("expected error for wrong table qualifier")
	}
}

// TestEvalAgainstBruteForce cross-checks vectorized evaluation against a
// row-at-a-time interpreter on random tables and random expressions.
func TestEvalAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ops := []sqlparse.CmpOp{sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(500)
		a := make([]int64, n)
		b := make([]int64, n)
		for i := range a {
			a[i] = int64(rng.Intn(50))
			b[i] = int64(rng.Intn(20) - 10)
		}
		tbl := table.New("t")
		tbl.MustAddColumn(table.NewColumn("a", a))
		tbl.MustAddColumn(table.NewColumn("b", b))

		var build func(depth int) sqlparse.Expr
		build = func(depth int) sqlparse.Expr {
			if depth == 0 || rng.Intn(3) == 0 {
				attr := "a"
				lim := 50
				if rng.Intn(2) == 0 {
					attr, lim = "b", 20
				}
				return &sqlparse.Pred{Attr: attr, Op: ops[rng.Intn(len(ops))], Val: int64(rng.Intn(lim+10) - 5)}
			}
			kids := []sqlparse.Expr{build(depth - 1), build(depth - 1)}
			if rng.Intn(2) == 0 {
				return sqlparse.NewAnd(kids...)
			}
			return sqlparse.NewOr(kids...)
		}
		expr := build(3)

		bm, err := EvalExpr(tbl, expr)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for i := 0; i < n; i++ {
			if bruteEval(expr, map[string]int64{"a": a[i], "b": b[i]}) {
				want++
			}
		}
		if got := bm.Count(); got != want {
			t.Fatalf("trial %d: vectorized=%d brute=%d for %s", trial, got, want, expr)
		}
	}
}

func bruteEval(e sqlparse.Expr, row map[string]int64) bool {
	switch n := e.(type) {
	case *sqlparse.Pred:
		v := row[n.Attr]
		switch n.Op {
		case sqlparse.OpEq:
			return v == n.Val
		case sqlparse.OpNe:
			return v != n.Val
		case sqlparse.OpLt:
			return v < n.Val
		case sqlparse.OpLe:
			return v <= n.Val
		case sqlparse.OpGt:
			return v > n.Val
		case sqlparse.OpGe:
			return v >= n.Val
		}
	case *sqlparse.And:
		for _, k := range n.Kids {
			if !bruteEval(k, row) {
				return false
			}
		}
		return true
	case *sqlparse.Or:
		for _, k := range n.Kids {
			if bruteEval(k, row) {
				return true
			}
		}
		return false
	}
	return false
}

// starDB builds a small star schema: fact table f referencing dimensions
// d1 and d2, plus a second-level satellite s referencing d1 (a chain), to
// exercise non-star trees.
func starDB(rng *rand.Rand, nf, nd1, nd2, ns int) *table.DB {
	db := table.NewDB()

	d1 := table.New("d1")
	d1ids := make([]int64, nd1)
	d1attr := make([]int64, nd1)
	for i := range d1ids {
		d1ids[i] = int64(i)
		d1attr[i] = int64(rng.Intn(5))
	}
	d1.MustAddColumn(table.NewColumn("id", d1ids))
	d1.MustAddColumn(table.NewColumn("x", d1attr))
	db.MustAdd(d1)

	d2 := table.New("d2")
	d2ids := make([]int64, nd2)
	d2attr := make([]int64, nd2)
	for i := range d2ids {
		d2ids[i] = int64(i)
		d2attr[i] = int64(rng.Intn(5))
	}
	d2.MustAddColumn(table.NewColumn("id", d2ids))
	d2.MustAddColumn(table.NewColumn("y", d2attr))
	db.MustAdd(d2)

	f := table.New("f")
	fd1 := make([]int64, nf)
	fd2 := make([]int64, nf)
	fattr := make([]int64, nf)
	for i := range fd1 {
		fd1[i] = int64(rng.Intn(nd1))
		fd2[i] = int64(rng.Intn(nd2))
		fattr[i] = int64(rng.Intn(5))
	}
	f.MustAddColumn(table.NewColumn("d1_id", fd1))
	f.MustAddColumn(table.NewColumn("d2_id", fd2))
	f.MustAddColumn(table.NewColumn("z", fattr))
	db.MustAdd(f)

	s := table.New("s")
	sd1 := make([]int64, ns)
	sattr := make([]int64, ns)
	for i := range sd1 {
		sd1[i] = int64(rng.Intn(nd1))
		sattr[i] = int64(rng.Intn(5))
	}
	s.MustAddColumn(table.NewColumn("d1_id", sd1))
	s.MustAddColumn(table.NewColumn("w", sattr))
	db.MustAdd(s)

	return db
}

// bruteJoinCount materializes the join with nested loops — the reference
// semantics for the message-passing counter.
func bruteJoinCount(db *table.DB, q *sqlparse.Query) int64 {
	tables := q.Tables
	sizes := make([]int, len(tables))
	for i, tn := range tables {
		sizes[i] = db.Table(tn).NumRows()
	}
	idx := make([]int, len(tables))
	var count int64
	var recurse func(d int)
	recurse = func(d int) {
		if d == len(tables) {
			// Check join predicates.
			for _, j := range q.Joins {
				lt, rt := db.Table(j.LeftTable), db.Table(j.RightTable)
				li, ri := tablePos(tables, j.LeftTable), tablePos(tables, j.RightTable)
				if lt.Column(j.LeftCol).Vals[idx[li]] != rt.Column(j.RightCol).Vals[idx[ri]] {
					return
				}
			}
			// Check selections.
			for _, kid := range sqlparse.Conjuncts(q.Where) {
				row := map[string]int64{}
				for _, p := range sqlparse.CollectPreds(kid) {
					tn, cn := splitAttr(p.Attr)
					ti := tablePos(tables, tn)
					row[p.Attr] = db.Table(tn).Column(cn).Vals[idx[ti]]
				}
				if !bruteEval(kid, row) {
					return
				}
			}
			count++
			return
		}
		for i := 0; i < sizes[d]; i++ {
			idx[d] = i
			recurse(d + 1)
		}
	}
	recurse(0)
	return count
}

func tablePos(tables []string, name string) int {
	for i, t := range tables {
		if t == name {
			return i
		}
	}
	return -1
}

func TestCountJoinAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := starDB(rng, 30, 8, 6, 12)
	queries := []string{
		"SELECT count(*) FROM f, d1 WHERE f.d1_id = d1.id",
		"SELECT count(*) FROM f, d1 WHERE f.d1_id = d1.id AND d1.x = 2",
		"SELECT count(*) FROM f, d1, d2 WHERE f.d1_id = d1.id AND f.d2_id = d2.id AND f.z > 1 AND d2.y <= 3",
		"SELECT count(*) FROM f, d1, s WHERE f.d1_id = d1.id AND s.d1_id = d1.id AND s.w = 0",
		"SELECT count(*) FROM f, d1, d2, s WHERE f.d1_id = d1.id AND f.d2_id = d2.id AND s.d1_id = d1.id AND d1.x >= 1 AND f.z <> 2",
		"SELECT count(*) FROM d1, s WHERE s.d1_id = d1.id AND (d1.x = 1 OR d1.x = 3)",
	}
	for _, src := range queries {
		q := sqlparse.MustParse(src)
		got, err := Count(db, q)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		want := bruteJoinCount(db, q)
		if got != want {
			t.Errorf("%s: message passing = %d, brute force = %d", src, got, want)
		}
	}
}

func TestCountJoinRandomized(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := starDB(rng, 20+rng.Intn(20), 5+rng.Intn(5), 4+rng.Intn(4), 10+rng.Intn(10))
		src := fmt.Sprintf(
			"SELECT count(*) FROM f, d1, d2 WHERE f.d1_id = d1.id AND f.d2_id = d2.id AND f.z <= %d AND d1.x > %d",
			rng.Intn(5), rng.Intn(4))
		q := sqlparse.MustParse(src)
		got, err := Count(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteJoinCount(db, q); got != want {
			t.Errorf("seed %d: got %d, want %d (%s)", seed, got, want, src)
		}
	}
}

func TestCountJoinErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := starDB(rng, 5, 3, 3, 3)
	// Missing join predicate: disconnected graph.
	q := sqlparse.MustParse("SELECT count(*) FROM f, d1, d2 WHERE f.d1_id = d1.id")
	if _, err := Count(db, q); err == nil {
		t.Error("expected error for disconnected join graph")
	}
	// Unknown table.
	q2 := sqlparse.MustParse("SELECT count(*) FROM nope")
	if _, err := Count(db, q2); err == nil {
		t.Error("expected error for unknown table")
	}
}

func TestBindStringPredicates(t *testing.T) {
	tbl := table.New("orders")
	tbl.MustAddColumn(table.NewStringColumn("status", []string{"F", "P", "F", "O", "P"}))
	db := singleDB(tbl)

	cases := []struct {
		src  string
		want int64
	}{
		{"status = 'P'", 2},
		{"status = 'F' OR status = 'P'", 4},
		{"status <> 'F'", 3},
		{"status = 'ZZZ'", 0},  // absent literal, equality: empty
		{"status <> 'ZZZ'", 5}, // absent literal, inequality: all
		{"status < 'P'", 3},    // F, F, O
		{"status >= 'P'", 2},
		{"status < 'G'", 2},  // absent literal between F and O
		{"status >= 'G'", 3}, // O, P, P
	}
	for _, tc := range cases {
		q := sqlparse.MustParse("SELECT count(*) FROM orders WHERE " + tc.src)
		if err := Bind(q, db); err != nil {
			t.Fatalf("%s: bind: %v", tc.src, err)
		}
		for _, p := range sqlparse.CollectPreds(q.Where) {
			if p.Str != nil {
				t.Fatalf("%s: predicate still unbound after Bind", tc.src)
			}
		}
		got, err := Count(db, q)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got != tc.want {
			t.Errorf("%s: count = %d, want %d", tc.src, got, tc.want)
		}
	}
}

func TestBindErrors(t *testing.T) {
	tbl := smallTable()
	db := singleDB(tbl)
	q := sqlparse.MustParse("SELECT count(*) FROM t WHERE a = 'x'")
	if err := Bind(q, db); err == nil {
		t.Error("expected error binding string literal to integer column")
	}
	q2 := sqlparse.MustParse("SELECT count(*) FROM t WHERE nosuch = 'x'")
	if err := Bind(q2, db); err == nil {
		t.Error("expected error for unknown column")
	}
}

func TestCountMany(t *testing.T) {
	db := singleDB(smallTable())
	qs := []*sqlparse.Query{
		sqlparse.MustParse("SELECT count(*) FROM t WHERE a <= 3"),
		sqlparse.MustParse("SELECT count(*) FROM t WHERE b = 9"),
	}
	got, err := countMany(db, qs)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 4 {
		t.Errorf("countMany = %v", got)
	}
	qs = append(qs, sqlparse.MustParse("SELECT count(*) FROM nope"))
	if _, err := countMany(db, qs); err == nil {
		t.Error("expected error propagation from bad query")
	}
}

func TestBindLikePrefix(t *testing.T) {
	tbl := table.New("movies")
	tbl.MustAddColumn(table.NewStringColumn("name", []string{
		"apollo", "apex", "banana", "apogee", "zebra", "apex",
	}))
	db := singleDB(tbl)

	cases := []struct {
		src  string
		want int64
	}{
		{"name LIKE 'ap%'", 4},
		{"name LIKE 'apex%'", 2},
		{"name LIKE 'q%'", 0},
		{"name LIKE '%'", 6}, // empty prefix matches everything
		{"name LIKE 'ap%' OR name = 'zebra'", 5},
	}
	for _, tc := range cases {
		q := sqlparse.MustParse("SELECT count(*) FROM movies WHERE " + tc.src)
		if err := Bind(q, db); err != nil {
			t.Fatalf("%s: bind: %v", tc.src, err)
		}
		got, err := Count(db, q)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got != tc.want {
			t.Errorf("%s: count = %d, want %d", tc.src, got, tc.want)
		}
	}
}

func TestBindLikeErrors(t *testing.T) {
	db := singleDB(smallTable())
	q := sqlparse.MustParse("SELECT count(*) FROM t WHERE a LIKE 'x%'")
	if err := Bind(q, db); err == nil {
		t.Error("LIKE on integer column accepted")
	}
}

func TestCountGroups(t *testing.T) {
	tbl := table.New("t")
	tbl.MustAddColumn(table.NewColumn("a", []int64{1, 2, 3, 4, 5, 6}))
	tbl.MustAddColumn(table.NewColumn("g", []int64{1, 1, 2, 2, 3, 3}))
	tbl.MustAddColumn(table.NewColumn("h", []int64{0, 1, 0, 1, 0, 1}))
	db := singleDB(tbl)

	cases := []struct {
		src  string
		want int64
	}{
		{"SELECT count(*) FROM t GROUP BY g", 3},
		{"SELECT count(*) FROM t WHERE a <= 2 GROUP BY g", 1},
		{"SELECT count(*) FROM t WHERE a >= 3 GROUP BY g", 2},
		{"SELECT count(*) FROM t GROUP BY g, h", 6},
		{"SELECT count(*) FROM t WHERE a <= 3 GROUP BY g, h", 3},
		{"SELECT count(*) FROM t WHERE a > 100 GROUP BY g", 0},
		{"SELECT count(*) FROM t WHERE a <= 3", 1}, // no grouping: one group
		{"SELECT count(*) FROM t WHERE a > 100", 0},
	}
	for _, tc := range cases {
		q := sqlparse.MustParse(tc.src)
		got, err := CountGroups(db, q)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got != tc.want {
			t.Errorf("%s: groups = %d, want %d", tc.src, got, tc.want)
		}
	}
}

func TestCountGroupsErrors(t *testing.T) {
	db := singleDB(smallTable())
	q := sqlparse.MustParse("SELECT count(*) FROM t GROUP BY nosuch")
	if _, err := CountGroups(db, q); err == nil {
		t.Error("unknown grouping column accepted")
	}
	q2 := sqlparse.MustParse("SELECT count(*) FROM a, b WHERE a.x = b.y")
	if _, err := CountGroups(db, q2); err == nil {
		t.Error("multi-table group counting accepted")
	}
}
