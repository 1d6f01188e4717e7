package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"qfe/internal/dataset"
	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// The stamped path against the by-name oracle (byname_test.go): every QFT,
// fed queries exec.Bind stamped, must give the vector, the selectivities and
// the error text the by-name grouping gives.

// allQFTs are the four QFTs over meta, selectivity entries on.
func allQFTs(meta *TableMeta) []Featurizer {
	opts := Options{MaxEntriesPerAttr: 32, AttrSel: true}
	return []Featurizer{NewSimple(meta), NewRange(meta), NewConjunctive(meta, opts), NewComplex(meta, opts)}
}

// diffByName featurizes every expression with f and with the by-name
// oracle, and holds the two to the same bits or the same error text.
func diffByName(t *testing.T, label string, f Featurizer, exprs []sqlparse.Expr) {
	t.Helper()
	got, want := make([]float64, f.Dim()), make([]float64, f.Dim())
	for i, expr := range exprs {
		poison(got)
		err := f.FeaturizeInto(got, expr)
		wantErr := byNameFeaturizeInto(f, want, expr)
		where := fmt.Sprintf("%s %s expr %d (%v)", label, f.Name(), i, expr)
		if !sameErr(err, wantErr) {
			t.Fatalf("%s: err %v, by-name err %v", where, err, wantErr)
		}
		if err == nil {
			sameBits(t, where, want, got)
		}
	}
}

// TestStampedMatchesByNameOnWorkloads: the benchmark's generators (mixed and
// conjunctive, seeds 1-2), whose queries are bound where they are labeled,
// under all four QFTs over a forest table with uniform and data-driven
// partitions. Simple, range and conjunctive refuse the mixed queries' ORs:
// those refusals are compared too.
func TestStampedMatchesByNameOnWorkloads(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 120
	}
	forest, err := dataset.Forest(dataset.ForestConfig{Rows: 3000, QuantAttrs: 12, BinaryAttrs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	partitioned, err := NewTableMetaPartitioned(forest, 32, equiDepthPartitioner)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		conj := workload.ConjConfig{Count: n, MaxAttrs: 8, MaxNotEquals: 5, Seed: seed}
		mixed, err := workload.Mixed(forest, workload.MixedConfig{ConjConfig: conj, MaxBranches: 3})
		if err != nil {
			t.Fatal(err)
		}
		conjunctive, err := workload.Conjunctive(forest, conj)
		if err != nil {
			t.Fatal(err)
		}
		var exprs []sqlparse.Expr
		for _, q := range append(mixed.Queries(), conjunctive.Queries()...) {
			exprs = append(exprs, q.Where)
		}
		for name, meta := range map[string]*TableMeta{"uniform": NewTableMeta(forest, 32), "partitioned": partitioned} {
			for _, f := range allQFTs(meta) {
				diffByName(t, fmt.Sprintf("%s seed %d", name, seed), f, exprs)
			}
		}
	}
}

// TestStampedMatchesByNameOnJOBLight: JOB-light and the join training
// workload, split per table (SplitWhereByTable), each share featurized by
// its table's QFT; a one-table query's WHERE also whole.
func TestStampedMatchesByNameOnJOBLight(t *testing.T) {
	imdb, err := dataset.IMDB(dataset.IMDBConfig{Titles: 600, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	schema := dataset.IMDBSchema()
	suite, err := workload.JOBLight(imdb, schema, workload.DefaultJOBLightConfig())
	if err != nil {
		t.Fatal(err)
	}
	train, err := workload.JoinTraining(imdb, schema, workload.JoinConfig{Count: 300, MinJoins: 0, MaxJoins: 3, MaxPreds: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	feats := map[string][]Featurizer{}
	for _, tn := range imdb.TableNames() {
		feats[tn] = allQFTs(NewTableMeta(imdb.Table(tn), 32))
	}
	for i, q := range append(suite.Queries(), train.Queries()...) {
		ands := make([]sqlparse.And, len(q.Tables))
		if err := SplitWhereByTable(q, q.Tables, ands); err != nil {
			t.Fatalf("query %d (%s): %v", i, q, err)
		}
		for j, tn := range q.Tables {
			exprs := []sqlparse.Expr{&ands[j]}
			if len(q.Tables) == 1 {
				exprs = append(exprs, q.Where)
			}
			for _, f := range feats[tn] {
				diffByName(t, fmt.Sprintf("query %d (%s) table %s", i, q, tn), f, exprs)
			}
		}
	}
}

// edgeDB is a database whose table t has columns A, B, C (the paper's
// running example) and one more, D, which the featurizers' meta does not
// cover; a table u whose column A is its second, and a table v whose column
// A is, as t's, its first.
func edgeDB() (*table.DB, *TableMeta) {
	t := table.New("t")
	t.MustAddColumn(table.NewColumn("A", []int64{-9, 50}))
	t.MustAddColumn(table.NewColumn("B", []int64{0, 115}))
	t.MustAddColumn(table.NewColumn("C", []int64{1, 2}))
	meta := NewTableMeta(t, 12)
	t.MustAddColumn(table.NewColumn("D", []int64{0, 9}))
	u := table.New("u")
	u.MustAddColumn(table.NewColumn("B", []int64{0, 9}))
	u.MustAddColumn(table.NewColumn("A", []int64{0, 9}))
	v := table.New("v")
	v.MustAddColumn(table.NewColumn("A", []int64{0, 9}))
	db := table.NewDB()
	db.MustAdd(t)
	db.MustAdd(u)
	db.MustAdd(v)
	return db, meta
}

// TestStampedMatchesByNameOnEdgeCases: a column the meta does not cover,
// attributes mixed inside one OR, a qualified name naming another table, and
// two such faults in one query — reported in the grouping's order, whichever
// the fold meets first.
func TestStampedMatchesByNameOnEdgeCases(t *testing.T) {
	db, meta := edgeDB()
	var exprs []sqlparse.Expr
	for _, src := range []string{
		"SELECT count(*) FROM t WHERE A < 7 AND D = 5",
		"SELECT count(*) FROM t WHERE A < 7 AND (B = 1 OR D = 5)",
		"SELECT count(*) FROM t WHERE (A = 1 OR B = 2) AND C = 1",
		"SELECT count(*) FROM t WHERE (A = 1 OR A = 3 AND B = 2) AND C = 1",
		"SELECT count(*) FROM t WHERE C = 1 AND (A = 1 OR (A = 2 AND (A > 3 OR C = 2)))",
		"SELECT count(*) FROM t, u WHERE t.A < 7 AND u.A = 5",
		"SELECT count(*) FROM t, u WHERE (t.A < 7 OR u.A = 5) AND t.B = 2",
		"SELECT count(*) FROM t, u WHERE (t.A < 7 OR t.A > 40) AND (t.B < 9 OR u.B = 2)",
		"SELECT count(*) FROM t, v WHERE t.B = 2 AND v.A = 5",
		"SELECT count(*) FROM t, v WHERE (t.A < 7 OR v.A = 5) AND t.B = 2",
		// Two faults: the earlier conjunct's is the one reported.
		"SELECT count(*) FROM t WHERE (C = 1 OR B = 2) AND D = 5",
		"SELECT count(*) FROM t WHERE D = 5 AND (C = 1 OR B = 2)",
		"SELECT count(*) FROM t WHERE (A = 1 OR D = 2) AND (B = 1 OR C = 2)",
		"SELECT count(*) FROM t WHERE B > 3 AND (B = 1 OR B = 2 OR C = 2) AND (A = 1 OR D = 2)",
		"SELECT count(*) FROM t WHERE (C = 1 OR C = 2) AND (B = 1 OR A = 2) AND (A = 1 OR B = 9)",
		// Both spellings of one attribute.
		"SELECT count(*) FROM t WHERE (t.A < 7 OR A > 40) AND t.B <> 3 AND B > 1",
	} {
		q := sqlparse.MustParse(src)
		if err := exec.Bind(q, db); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		exprs = append(exprs, q.Where)
	}
	for _, f := range allQFTs(meta) {
		diffByName(t, "edge", f, exprs)
	}
	// The faults above are all refused, and refusals of the query's shape.
	for _, f := range allQFTs(meta) {
		for i, expr := range exprs[:15] {
			err := f.FeaturizeInto(make([]float64, f.Dim()), expr)
			if !errors.Is(err, ErrUnsupported) {
				t.Errorf("%s expr %d (%s): err %v, want one marked ErrUnsupported", f.Name(), i, expr, err)
			}
		}
	}
}

// TestUnboundPredicateIsRefused: a predicate without a column stamp — a
// query nobody bound — is refused by every QFT as Unsupported, with a text
// that names the predicate and does not change from call to call; once
// bound, the same query featurizes.
func TestUnboundPredicateIsRefused(t *testing.T) {
	db, meta := edgeDB()
	const src = "SELECT count(*) FROM t WHERE A < 7 AND B >= 30"
	for _, f := range allQFTs(meta) {
		q := sqlparse.MustParse(src)
		want := fmt.Sprintf("core/%s: predicate A < 7 is not bound to a column (exec.Bind)", f.Name())
		for i := 0; i < 2; i++ {
			err := f.FeaturizeInto(make([]float64, f.Dim()), q.Where)
			if !errors.Is(err, ErrUnsupported) || err.Error() != want {
				t.Fatalf("%s call %d: err %v, want %q marked ErrUnsupported", f.Name(), i, err, want)
			}
		}
		if err := exec.Bind(q, db); err != nil {
			t.Fatal(err)
		}
		if err := f.FeaturizeInto(make([]float64, f.Dim()), q.Where); err != nil {
			t.Errorf("%s after Bind: %v", f.Name(), err)
		}
	}
}

// TestStampsFollowTheTablesColumnOrder: a meta restored from a spec reads
// the stamps of whatever table MapColumns maps it onto — here one whose
// columns come in another order, with one more — and refuses to map onto a
// table that lacks one of its attributes.
func TestStampsFollowTheTablesColumnOrder(t *testing.T) {
	_, meta := edgeDB()
	restored, err := NewTableMetaFromSpec(meta.Spec())
	if err != nil {
		t.Fatal(err)
	}
	shuffled := table.New("t")
	for _, name := range []string{"D", "C", "A", "B"} {
		shuffled.MustAddColumn(table.NewColumn(name, []int64{0, 1}))
	}
	db := table.NewDB()
	db.MustAdd(shuffled)
	if missing := restored.MapColumns(shuffled); missing != "" {
		t.Fatalf("MapColumns: missing %q", missing)
	}
	q := sqlparse.MustParse("SELECT count(*) FROM t WHERE A < 7 AND (B = 3 OR B > 90) AND C = 2")
	if err := exec.Bind(q, db); err != nil {
		t.Fatal(err)
	}
	for _, f := range allQFTs(restored) {
		diffByName(t, "shuffled", f, []sqlparse.Expr{q.Where})
	}
	if f := NewComplex(restored, Options{MaxEntriesPerAttr: 12}); f.FeaturizeInto(make([]float64, f.Dim()), q.Where) != nil {
		t.Fatal("the remapped meta refuses the bound query")
	}
	narrow := table.New("t")
	narrow.MustAddColumn(table.NewColumn("A", []int64{0, 1}))
	if missing := restored.MapColumns(narrow); missing != "B" {
		t.Errorf("MapColumns onto a table without B: missing %q, want B", missing)
	}
	diffByName(t, "after a refused MapColumns", NewComplex(restored, Options{MaxEntriesPerAttr: 12}), []sqlparse.Expr{q.Where})
}

// TestBoundQueriesFeaturizeConcurrently: queries bound once, sharing their
// leaves, featurized from several goroutines at once give the sequential
// vectors — featurizing reads the stamps and writes nothing to the query.
// Run under -race.
func TestBoundQueriesFeaturizeConcurrently(t *testing.T) {
	forest, err := dataset.Forest(dataset.ForestConfig{Rows: 2000, QuantAttrs: 6, BinaryAttrs: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	set, err := workload.Mixed(forest, workload.MixedConfig{ConjConfig: workload.ConjConfig{Count: 200, MaxAttrs: 5, MaxNotEquals: 3, Seed: 6}, MaxBranches: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := NewComplex(NewTableMeta(forest, 32), Options{MaxEntriesPerAttr: 32, AttrSel: true})
	want := make([][]float64, len(set))
	for i, l := range set {
		if want[i], err = f.Featurize(l.Query.Where); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]float64, f.Dim())
			for k := range set {
				i := (k*7 + g*13) % len(set)
				if err := f.FeaturizeInto(dst, set[i].Query.Where); err != nil {
					t.Error(err)
					return
				}
				for j := range dst {
					if math.Float64bits(dst[j]) != math.Float64bits(want[i][j]) {
						t.Errorf("goroutine %d query %d entry %d: %v, sequential %v", g, i, j, dst[j], want[i][j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
