package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// benchTable builds a 100k-row two-column table for filter benchmarks.
func benchTable(b *testing.B) *table.Table {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	n := 100_000
	a := make([]int64, n)
	c := make([]int64, n)
	for i := 0; i < n; i++ {
		a[i] = int64(rng.Intn(10_000))
		c[i] = int64(rng.Intn(100))
	}
	t := table.New("t")
	t.MustAddColumn(table.NewColumn("a", a))
	t.MustAddColumn(table.NewColumn("c", c))
	return t
}

// BenchmarkEvalPredRange measures one simple predicate becoming a row bitmap,
// dictionary warm, at the selectivities the generated workloads produce:
// ranges from nearly empty to nearly full, and a not-equals, which is true of
// almost every row. The cost follows the smaller side — the qualifying rows
// or the others — so 50 % is the dearest and the ends are nearly free; the
// scan kernels this replaced (eval_oracle_test.go) cost the same ~80 us
// everywhere.
func BenchmarkEvalPredRange(b *testing.B) {
	tbl := benchTable(b)
	tbl.Column("a").Dictionary()
	for _, bc := range []struct {
		name string
		pred sqlparse.Pred
	}{
		{"le_1pct", sqlparse.Pred{Attr: "a", Op: sqlparse.OpLe, Val: 99}},
		{"le_50pct", sqlparse.Pred{Attr: "a", Op: sqlparse.OpLe, Val: 5000}},
		{"le_99pct", sqlparse.Pred{Attr: "a", Op: sqlparse.OpLe, Val: 9899}},
		{"ne", sqlparse.Pred{Attr: "a", Op: sqlparse.OpNe, Val: 5000}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(tbl.NumRows() * 8))
			for i := 0; i < b.N; i++ {
				if _, err := EvalExpr(tbl, &bc.pred); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCountColdColumn is the price of the dictionary where it is not
// shared: constructing a 100 000-row column — its ANALYZE, a sort of the
// column — and counting once on it, where a scan kernel answered in ~80 us.
// Every labeler amortizes the construction over thousands of counts; a
// caller that counts once on a table pays this.
func BenchmarkCountColdColumn(b *testing.B) {
	vals := benchTable(b).Column("a").Vals
	q := sqlparse.MustParse("SELECT count(*) FROM t WHERE a <= 5000")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := table.New("t")
		tbl.MustAddColumn(table.NewColumn("a", vals))
		if _, err := Count(singleDB(tbl), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalExprConjunction measures a 4-predicate conjunctive filter,
// dictionaries warm.
func BenchmarkEvalExprConjunction(b *testing.B) {
	tbl := benchTable(b)
	q := sqlparse.MustParse("SELECT count(*) FROM t WHERE a >= 1000 AND a <= 8000 AND a <> 4000 AND c = 7")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalExpr(tbl, q.Where); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountJoin measures the multiplicity message-passing join counter
// on a 3-table star.
func BenchmarkCountJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	db := table.NewDB()
	nd := 2_000
	hub := table.New("hub")
	ids := make([]int64, nd)
	x := make([]int64, nd)
	for i := range ids {
		ids[i] = int64(i)
		x[i] = int64(rng.Intn(50))
	}
	hub.MustAddColumn(table.NewColumn("id", ids))
	hub.MustAddColumn(table.NewColumn("x", x))
	db.MustAdd(hub)
	for _, name := range []string{"s1", "s2"} {
		n := 20_000
		fk := make([]int64, n)
		y := make([]int64, n)
		for i := range fk {
			fk[i] = int64(rng.Intn(nd))
			y[i] = int64(rng.Intn(20))
		}
		t := table.New(name)
		t.MustAddColumn(table.NewColumn("hub_id", fk))
		t.MustAddColumn(table.NewColumn("y", y))
		db.MustAdd(t)
	}
	q := sqlparse.MustParse(`SELECT count(*) FROM hub, s1, s2
		WHERE s1.hub_id = hub.id AND s2.hub_id = hub.id
		AND hub.x <= 25 AND s1.y = 3`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Count(db, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountManyWorkers compares sequential labeling against the
// parallel batch path (one goroutine per worker, all reading the same column
// dictionaries, built by the first iteration) on a 200-query workload. On
// multi-core hardware the parallel variants should show near-linear speedup
// with bit-identical labels.
func BenchmarkCountManyWorkers(b *testing.B) {
	tbl := genTable(1, 100_000)
	db := singleDB(tbl)
	qs := genQueries(2, 200)
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CountManyWorkers(ctx, db, qs, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
