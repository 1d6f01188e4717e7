package exec

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"qfe/internal/core"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// genTable builds a randomized table large enough that parallel labeling
// does real work: a 1000-value column and two low-cardinality ones.
func genTable(seed int64, rows int) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	a := make([]int64, rows)
	b := make([]int64, rows)
	c := make([]int64, rows)
	for i := 0; i < rows; i++ {
		a[i] = int64(rng.Intn(1000))
		b[i] = int64(rng.Intn(10))
		c[i] = int64(rng.Intn(2))
	}
	t := table.New("g")
	t.MustAddColumn(table.NewColumn("a", a))
	t.MustAddColumn(table.NewColumn("b", b))
	t.MustAddColumn(table.NewColumn("c", c))
	return t
}

// genQueries produces count random conjunctive/disjunctive queries over
// genTable's schema.
func genQueries(seed int64, count int) []*sqlparse.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]*sqlparse.Query, count)
	for i := range qs {
		lo := int64(rng.Intn(900))
		hi := lo + int64(rng.Intn(100))
		kids := []sqlparse.Expr{
			&sqlparse.Pred{Attr: "a", Op: sqlparse.OpGe, Val: lo},
			&sqlparse.Pred{Attr: "a", Op: sqlparse.OpLe, Val: hi},
			&sqlparse.Pred{Attr: "b", Op: sqlparse.OpEq, Val: int64(rng.Intn(10))},
		}
		var where sqlparse.Expr = sqlparse.NewAnd(kids...)
		if rng.Intn(3) == 0 {
			where = sqlparse.NewOr(where, &sqlparse.Pred{Attr: "c", Op: sqlparse.OpEq, Val: int64(rng.Intn(2))})
		}
		qs[i] = &sqlparse.Query{Tables: []string{"g"}, Where: where}
	}
	return qs
}

// countMany is the sequential oracle the parallel labelers are held to: one
// Count per query, in order, all or nothing.
func countMany(db *table.DB, qs []*sqlparse.Query) ([]int64, error) {
	out := make([]int64, len(qs))
	for i, q := range qs {
		n, err := Count(db, q)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// TestCountManyCtxMatchesSequential: the tentpole determinism guarantee —
// parallel labeling, every worker reading the same column dictionaries,
// produces bit-identical labels to the sequential path, for several worker
// counts.
func TestCountManyCtxMatchesSequential(t *testing.T) {
	tbl := genTable(1, 20_000)
	db := singleDB(tbl)
	qs := genQueries(2, 300)

	want, err := countMany(db, qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 4, 8} {
		got, err := CountManyWorkers(context.Background(), db, qs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: query %d labeled %d, sequential %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestCountManyCtxPartialResults: a failing query must not discard the
// labels already computed, and the reported error must carry the smallest
// failing index regardless of scheduling.
func TestCountManyCtxPartialResults(t *testing.T) {
	tbl := genTable(3, 1000)
	db := singleDB(tbl)
	qs := genQueries(4, 50)
	// Two bad queries; index 20 must win deterministically.
	qs[20] = &sqlparse.Query{Tables: []string{"nosuch"}}
	qs[40] = &sqlparse.Query{Tables: []string{"alsonot"}}

	for _, workers := range []int{1, 4} {
		got, err := CountManyWorkers(context.Background(), db, qs, workers)
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		var qe *QueryError
		if !errors.As(err, &qe) {
			t.Fatalf("workers=%d: error %T is not a *QueryError", workers, err)
		}
		if qe.Index != 20 {
			t.Errorf("workers=%d: first error index = %d, want 20", workers, qe.Index)
		}
		if len(got) != len(qs) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), len(qs))
		}
		for i, c := range got {
			switch i {
			case 20, 40:
				if c != -1 {
					t.Errorf("workers=%d: failed query %d has label %d, want -1", workers, i, c)
				}
			default:
				if c < 0 {
					t.Errorf("workers=%d: query %d label lost (%d)", workers, i, c)
				}
			}
		}
	}
}

// TestCountManyCtxCancellation: a canceled context stops the batch with a
// context error instead of running every query to completion.
func TestCountManyCtxCancellation(t *testing.T) {
	tbl := genTable(5, 1000)
	db := singleDB(tbl)
	qs := genQueries(6, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CountManyCtx(ctx, db, qs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCountManyOldWrapper: the oracle is all-or-nothing, unlike the partial
// results of CountManyWorkers.
func TestCountManyOldWrapper(t *testing.T) {
	tbl := genTable(7, 500)
	db := singleDB(tbl)
	qs := genQueries(8, 10)
	qs[3] = &sqlparse.Query{Tables: []string{"nosuch"}}
	out, err := countMany(db, qs)
	if err == nil {
		t.Fatal("expected error")
	}
	if out != nil {
		t.Fatalf("countMany must return nil results on error, got %v", out)
	}
}

// TestBindDoesNotMutateSharedPred: the satellite regression — a *Pred node
// shared by two queries (workload templates) must survive the first Bind
// intact so the second query binds correctly, and concurrent evaluation of
// already-bound queries never observes a mutation. The one write Bind makes
// to a shared node is a numeric leaf's column stamp: two queries over one
// table that share it, bound one after the other, read the same stamp, the
// second Bind writes nothing, and the two featurize identically.
func TestBindDoesNotMutateSharedPred(t *testing.T) {
	vals := []string{"ash", "beech", "cedar", "beech", "ash", "cedar", "beech"}
	tbl := table.New("trees")
	tbl.MustAddColumn(table.NewStringColumn("species", vals))
	db := singleDB(tbl)

	lit := "beech"
	shared := &sqlparse.Pred{Attr: "species", Op: sqlparse.OpEq, Str: &lit}
	q1 := &sqlparse.Query{Tables: []string{"trees"}, Where: shared}
	q2 := &sqlparse.Query{Tables: []string{"trees"}, Where: shared}

	if err := Bind(q1, db); err != nil {
		t.Fatal(err)
	}
	if shared.Str == nil || *shared.Str != "beech" {
		t.Fatal("Bind mutated the shared Pred node in place")
	}
	if err := Bind(q2, db); err != nil {
		t.Fatalf("binding the second query sharing the node: %v", err)
	}
	c1, err := Count(db, q1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Count(db, q2)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != 3 || c2 != 3 {
		t.Errorf("counts after shared-node binds: %d and %d, want 3 and 3", c1, c2)
	}

	num := genTable(1, 200)
	ndb := singleDB(num)
	year := &sqlparse.Pred{Attr: "b", Op: sqlparse.OpGe, Val: 3}
	n1 := &sqlparse.Query{Tables: []string{num.Name}, Where: sqlparse.NewAnd(year, &sqlparse.Pred{Attr: "a", Op: sqlparse.OpLt, Val: 500})}
	n2 := &sqlparse.Query{Tables: []string{num.Name}, Where: sqlparse.NewAnd(year,
		sqlparse.NewOr(&sqlparse.Pred{Attr: "c", Op: sqlparse.OpEq, Val: 1}, &sqlparse.Pred{Attr: "c", Op: sqlparse.OpEq, Val: 2}))}
	f := core.NewComplex(core.NewTableMeta(num, 16), core.Options{MaxEntriesPerAttr: 16, AttrSel: true})
	if err := Bind(n1, ndb); err != nil {
		t.Fatal(err)
	}
	stamp := year.Col
	if want := int32(num.ColumnIndex("b") + 1); stamp != want {
		t.Fatalf("the shared leaf's stamp after the first Bind = %d, want %d", stamp, want)
	}
	before, err := f.Featurize(n1.Where)
	if err != nil {
		t.Fatal(err)
	}
	if err := Bind(n2, ndb); err != nil {
		t.Fatal(err)
	}
	if year.Col != stamp {
		t.Fatalf("the second Bind changed the shared stamp %d → %d", stamp, year.Col)
	}
	after, err := f.Featurize(n1.Where)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("the first query featurizes differently after the second Bind:\n  %v\n  %v", before, after)
	}
	if _, err := f.Featurize(n2.Where); err != nil {
		t.Errorf("the second query: %v", err)
	}
	// A third Bind of the already-bound query writes nothing: -race sees no
	// write while other goroutines featurize and count both queries.
	done := make(chan struct{})
	for g := 0; g < 3; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				if v, err := f.Featurize(n1.Where); err != nil || !reflect.DeepEqual(v, before) {
					t.Errorf("concurrent featurize: %v, %v", v, err)
					return
				}
				if _, err := Count(ndb, n2); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if err := Bind(n1, ndb); err != nil {
			t.Error(err)
		}
	}
	for g := 0; g < 3; g++ {
		<-done
	}
}
