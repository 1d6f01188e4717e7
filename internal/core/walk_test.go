package core

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"qfe/internal/dataset"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/testutil"
	"qfe/internal/workload"
)

// Tests of the scratch-based walks on the traffic the daemon actually
// serves: workload.Mixed queries over the forest table, complex QFT. The
// oracles are the allocating implementations in oracle_test.go.

// mixedForest generates the serving-shaped corpus: a small forest table and
// n mixed AND/OR queries over it, with the benchmark's generator settings.
func mixedForest(t testing.TB, n int) (*table.Table, []*sqlparse.Query) {
	t.Helper()
	forest, err := dataset.Forest(dataset.ForestConfig{Rows: 1500, QuantAttrs: 12, BinaryAttrs: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	set, err := workload.Mixed(forest, workload.MixedConfig{
		ConjConfig:  workload.ConjConfig{Count: n, MaxAttrs: 8, MaxNotEquals: 5, Seed: 11},
		MaxBranches: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return forest, set.Queries()
}

// TestWalkMatchesOracleOnMixedWorkload: 2000 generated mixed queries, every
// QFT, with and without selectivity entries and frequency weights — vectors
// bit-identical, and where the oracle rejects a query (disjunctions under the
// conjunctive QFTs) the walk rejects it too.
func TestWalkMatchesOracleOnMixedWorkload(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 300
	}
	forest, qs := mixedForest(t, n)
	for _, weighted := range []bool{false, true} {
		meta := NewTableMeta(forest, 32)
		if weighted {
			meta = NewTableMetaWeighted(forest, 32)
		}
		for _, attrSel := range []bool{false, true} {
			for _, name := range []string{"conjunctive", "complex"} {
				f, err := New(name, meta, Options{MaxEntriesPerAttr: 32, AttrSel: attrSel})
				if err != nil {
					t.Fatal(err)
				}
				dst := make([]float64, f.Dim())
				for i, q := range qs {
					want, wantErr := oracleFeaturize(f, q.Where)
					poison(dst)
					err := featurizeInto(f, dst, q.Where)
					if (wantErr == nil) != (err == nil) {
						t.Fatalf("%s query %d: oracle err %v, walk err %v\n%s", name, i, wantErr, err, q)
					}
					if err == nil {
						sameVec(t, i, name, want, dst)
					}
				}
			}
		}
	}
}

// canonCorpus is every query shape the canonical form has to render: the
// fingerprint tests' pairs, the parseable sqlparse fuzz seeds, and ASTs no
// parser produces (empty and single-child nodes, nil-slice children).
func canonCorpus(t *testing.T) []*sqlparse.Query {
	t.Helper()
	var qs []*sqlparse.Query
	for _, sql := range []string{
		"SELECT count(*) FROM t",
		"SELECT count(*) FROM t, t",
		"SELECT count(*) FROM t WHERE A >= 3 AND B = 1",
		"SELECT count(*) FROM t WHERE B = 1 AND A >= 3",
		"SELECT count(*) FROM t WHERE A > 5",
		"SELECT count(*) FROM t WHERE A < 5",
		"SELECT count(*) FROM t WHERE A != 2",
		"SELECT count(*) FROM t WHERE A = 1 AND A = 1",
		"SELECT count(*) FROM t WHERE A = 1 OR A = 1",
		"SELECT count(*) FROM t WHERE (A = 1 OR A = 2) AND B > 0",
		"SELECT count(*) FROM t WHERE B >= 1 AND (A = 2 OR A = 1)",
		"SELECT count(*) FROM a, b WHERE a.id = b.a_id AND a.x > 0",
		"SELECT count(*) FROM b, a WHERE b.a_id = a.id AND a.x >= 1",
		"SELECT count(*) FROM a, b, c WHERE a.id = b.a_id AND c.a_id = a.id AND b.a_id = a.id",
		"SELECT count(*) FROM t WHERE A = 1 GROUP BY B, C",
		"SELECT count(*) FROM t WHERE A = 1 GROUP BY C, B, C",
		"SELECT count(*) FROM t WHERE (A = 1 AND B = 2) AND C = 3",
		"SELECT count(*) FROM t WHERE A = 1 AND B = 2 OR C = 3 AND (A = 4 OR (B = 5 AND (C = 6 OR C = 7)))",
		"SELECT count(*) FROM t WHERE A = '1'",
		"SELECT count(*) FROM t WHERE A = 'x' AND B = 'y'",
		"SELECT count(*) FROM t WHERE A = 'x\x01B\x00=\x00\"y\"'",
		"SELECT count(*) FROM t WHERE A LIKE 'x%' OR A LIKE 'it''s%'",
		"SELECT count(*) FROM t WHERE a >= -5 AND b <> 3 OR c < 100",
		"SELECT count(*) FROM forest WHERE (A1 = 1 OR A1 = 2) AND A2 <= 9",
		"SELECT count(*) FROM t WHERE s = 'it''s' AND n LIKE 'ab%'",
		"select COUNT ( * ) from T where 5 < x",
		"SELECT count(*) FROM t WHERE " + strings.Repeat("(", 50) + "a = 1" + strings.Repeat(")", 50),
	} {
		qs = append(qs, mustParseQ(t, sql))
	}
	p := func(attr string, op sqlparse.CmpOp, v int64) sqlparse.Expr {
		return &sqlparse.Pred{Attr: attr, Op: op, Val: v}
	}
	for _, where := range []sqlparse.Expr{
		&sqlparse.And{},
		&sqlparse.Or{Kids: []sqlparse.Expr{}},
		&sqlparse.And{Kids: []sqlparse.Expr{p("a", sqlparse.OpEq, 1)}},
		&sqlparse.And{Kids: []sqlparse.Expr{p("a", sqlparse.OpEq, 1), &sqlparse.And{}, &sqlparse.Or{}}},
		&sqlparse.Or{Kids: []sqlparse.Expr{&sqlparse.Or{Kids: []sqlparse.Expr{p("b", sqlparse.OpLt, 2), p("a", sqlparse.OpGt, 1)}}, p("a", sqlparse.OpGe, 2)}},
		p("a", sqlparse.OpGt, math.MaxInt64),
		p("a", sqlparse.OpLt, math.MinInt64),
		p("a", sqlparse.OpLt, math.MinInt64+1),
	} {
		qs = append(qs, &sqlparse.Query{Tables: []string{"t"}, Where: where})
	}
	return qs
}

// TestCanonicalQueryMatchesOracle: the pooled renderer must reproduce the
// string-building one byte for byte — every fingerprint in a journal or a
// canary written before the rewrite has to keep joining.
func TestCanonicalQueryMatchesOracle(t *testing.T) {
	_, mixed := mixedForest(t, 2000)
	for i, q := range append(canonCorpus(t), mixed...) {
		if got, want := CanonicalQuery(q), oracleCanonicalQuery(q); got != want {
			t.Fatalf("query %d (%s):\n got  %q\n want %q", i, q, got, want)
		}
		if got, want := Fingerprint(q), oracleFingerprint(q); got != want {
			t.Fatalf("query %d (%s): fingerprint %s, want %s", i, q, got, want)
		}
	}
}

// TestSteadyStateAllocs pins the per-query garbage of the two analyses a
// cache miss runs, on the complex QFT over mixed queries: featurization
// allocates nothing once the pooled scratch has grown, the fingerprint only
// its result.
func TestSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector defeats sync.Pool's per-P caches")
	}
	forest, qs := mixedForest(t, 256)
	f := NewComplex(NewTableMeta(forest, 32), Options{MaxEntriesPerAttr: 32, AttrSel: true})
	dst := make([]float64, f.Dim())
	pass := func(run func(q *sqlparse.Query)) float64 {
		k := 0
		step := func() { run(qs[k%len(qs)]); k++ }
		for range qs { // grow the pooled workspaces
			step()
		}
		return testing.AllocsPerRun(2*len(qs), step)
	}
	if got := pass(func(q *sqlparse.Query) {
		if err := f.FeaturizeInto(dst, q.Where); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Complex.FeaturizeInto allocs/op = %v, want 0", got)
	}
	if got := pass(func(q *sqlparse.Query) { Fingerprint(q) }); got > 2 {
		t.Errorf("Fingerprint allocs/op = %v, want <= 2", got)
	}
}

// TestSharedFeaturizerConcurrent: the scratch is per call, never per
// featurizer — eight goroutines hammering one Complex must each get the
// vectors a lone goroutine gets. Run under -race.
func TestSharedFeaturizerConcurrent(t *testing.T) {
	forest, qs := mixedForest(t, 200)
	f := NewComplex(NewTableMeta(forest, 32), Options{MaxEntriesPerAttr: 32, AttrSel: true})
	want := make([][]float64, len(qs))
	for i, q := range qs {
		v, err := featurize(f, q.Where)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]float64, f.Dim())
			for r := 0; r < 5; r++ {
				for k := range qs {
					i := (k + 25*g) % len(qs)
					if err := f.FeaturizeInto(dst, qs[i].Where); err != nil {
						t.Error(err)
						return
					}
					for j := range dst {
						if dst[j] != want[i][j] {
							t.Errorf("goroutine %d query %d entry %d = %v, want %v", g, i, j, dst[j], want[i][j])
							return
						}
					}
					if Fingerprint(qs[i]) != oracleFingerprint(qs[i]) {
						t.Errorf("goroutine %d query %d: fingerprint differs", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBothSpellingsOfOneAttribute: "t.a" and "a" are one attribute. Grouping
// conjuncts by spelling used to drop one of the two predicates (complex: the
// later compound overwrote the earlier; conjunctive and range: only the first
// spelling was looked up); grouping by attribute index keeps both.
func TestBothSpellingsOfOneAttribute(t *testing.T) {
	meta := NewTableMetaFromAttrs("t", []AttrMeta{{Name: "a", Min: 0, Max: 99}}, 10)
	opts := Options{MaxEntriesPerAttr: 10, AttrSel: true}
	want := []float64{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0.1}
	for _, where := range []string{
		"a >= 50 AND a <= 59",
		"t.a >= 50 AND a <= 59",
		"a >= 50 AND t.a <= 59",
		"t.a >= 50 AND t.a <= 59",
	} {
		expr := wherePart(t, where)
		for _, f := range []Featurizer{NewConjunctive(meta, opts), NewComplex(meta, opts)} {
			got, err := featurize(f, expr)
			if err != nil {
				t.Fatalf("%s %q: %v", f.Name(), where, err)
			}
			vecEq(t, got, want, f.Name()+" "+where)
		}
	}
	// One compound predicate may mix the spellings too.
	got, err := featurize(NewComplex(meta, opts), wherePart(t, "t.a = 55 OR a = 5"))
	if err != nil {
		t.Fatal(err)
	}
	vecEq(t, got, []float64{h, 0, 0, 0, 0, h, 0, 0, 0, 0, 0.02}, "complex mixed-spelling OR")
}

// TestStrictComparisonAtInt64Extremes: "a > MaxInt64" and "a < MinInt64"
// qualify nothing. Computing the closed bound val±1 unguarded wrapped around
// and featurized them as "everything qualifies".
func TestStrictComparisonAtInt64Extremes(t *testing.T) {
	meta := NewTableMetaFromAttrs("t", []AttrMeta{{Name: "a", Min: -20, Max: 79}}, 10)
	opts := Options{MaxEntriesPerAttr: 10, AttrSel: true}
	empty := make([]float64, 11)
	full := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	gtMax := &sqlparse.Pred{Attr: "a", Op: sqlparse.OpGt, Val: math.MaxInt64}
	ltMin := &sqlparse.Pred{Attr: "a", Op: sqlparse.OpLt, Val: math.MinInt64}
	for _, f := range []Featurizer{NewConjunctive(meta, opts), NewComplex(meta, opts)} {
		for _, p := range []*sqlparse.Pred{gtMax, ltMin} {
			got, err := featurize(f, p)
			if err != nil {
				t.Fatal(err)
			}
			vecEq(t, got, empty, f.Name()+" "+p.String())
			// And it stays empty whatever else the conjunction says.
			got, err = featurize(f, sqlparse.NewAnd(&sqlparse.Pred{Attr: "a", Op: sqlparse.OpGe, Val: 0}, p, &sqlparse.Pred{Attr: "a", Op: sqlparse.OpNe, Val: 3}))
			if err != nil {
				t.Fatal(err)
			}
			vecEq(t, got, empty, f.Name()+" conjunction with "+p.String())
		}
		// The non-strict neighbours are untouched by the guard.
		for _, p := range []*sqlparse.Pred{
			{Attr: "a", Op: sqlparse.OpLe, Val: math.MaxInt64},
			{Attr: "a", Op: sqlparse.OpGe, Val: math.MinInt64},
			{Attr: "a", Op: sqlparse.OpLt, Val: math.MaxInt64},
			{Attr: "a", Op: sqlparse.OpGt, Val: math.MinInt64},
		} {
			got, err := featurize(f, p)
			if err != nil {
				t.Fatal(err)
			}
			vecEq(t, got, full, f.Name()+" "+p.String())
		}
	}
}

// TestDNFBound: the arena enumerates exactly sqlparse.ToDNF's terms up to
// the same bound, and past it both refuse — before materializing anything.
func TestDNFBound(t *testing.T) {
	meta := NewTableMetaFromAttrs("t", []AttrMeta{{Name: "a", Min: 0, Max: 99}}, 10)
	f := NewComplex(meta, Options{MaxEntriesPerAttr: 10, AttrSel: true})
	pair := func(i int) sqlparse.Expr {
		return sqlparse.NewOr(
			&sqlparse.Pred{Attr: "a", Op: sqlparse.OpGe, Val: int64(i)},
			&sqlparse.Pred{Attr: "a", Op: sqlparse.OpLe, Val: int64(90 - i)},
		)
	}
	var kids []sqlparse.Expr
	for i := 0; i < 12; i++ { // 2^12 = 4096 terms: the bound itself
		kids = append(kids, pair(i))
	}
	expr := sqlparse.NewAnd(kids...)
	want, err := oracleComplex(f, expr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := featurize(f, expr)
	if err != nil {
		t.Fatal(err)
	}
	vecEq(t, got, want, "4096-term compound")

	expr = sqlparse.NewAnd(append(kids, pair(12))...)
	if _, err := sqlparse.ToDNF(expr); err == nil {
		t.Fatal("sqlparse.ToDNF accepted 8192 terms")
	}
	if _, err := featurize(f, expr); err == nil {
		t.Fatal("Complex accepted 8192 terms")
	}
	var wide []sqlparse.Expr
	for i := 0; i <= maxDNFTerms; i++ {
		wide = append(wide, &sqlparse.Pred{Attr: "a", Op: sqlparse.OpEq, Val: int64(i % 100)})
	}
	if _, err := featurize(f, sqlparse.NewOr(wide...)); err == nil {
		t.Fatal("Complex accepted a 4097-way disjunction")
	}
}

// TestShapeErrorsAreUnsupported: every error that depends only on the query's
// shape is marked ErrUnsupported and keeps its text — a disjunction under
// conjunctive, a conjunct mixing attributes or tables or
// holding no predicates, the DNF bound, a name the featurizer cannot place on
// one of its attributes (unknown, or qualified with another table) — and a
// string literal nobody bound is not: that is the caller's broken contract.
func TestShapeErrorsAreUnsupported(t *testing.T) {
	meta := NewTableMetaFromAttrs("t", []AttrMeta{{Name: "a", Min: 0, Max: 99}, {Name: "b", Min: 0, Max: 9}}, 10)
	opts := Options{MaxEntriesPerAttr: 10, AttrSel: true}
	where := func(s string) sqlparse.Expr { return sqlparse.MustParse("SELECT count(*) FROM t WHERE " + s).Where }
	var dnf []sqlparse.Expr // 2^13 terms on one attribute
	for i := 0; i < 13; i++ {
		dnf = append(dnf, sqlparse.NewOr(
			&sqlparse.Pred{Attr: "a", Op: sqlparse.OpGe, Val: int64(i)},
			&sqlparse.Pred{Attr: "a", Op: sqlparse.OpLe, Val: int64(90 - i)}))
	}
	empty := &sqlparse.And{Kids: []sqlparse.Expr{where("a >= 1"), &sqlparse.Or{}}}
	for _, tc := range []struct {
		f    Featurizer
		expr sqlparse.Expr
		text string
	}{
		{NewConjunctive(meta, opts), where("a >= 1 OR a <= 0"), "core/conjunctive: disjunctions require Limited Disjunction Encoding"},
		{NewComplex(meta, opts), where("a >= 1 OR b <= 3"), `core/complex: not a mixed query (Definition 3.3): a conjunct mixes attributes "a" and "b"`},
		{NewComplex(meta, opts), empty, `core/complex: conjunct "" has no predicates`},
		{NewComplex(meta, opts), sqlparse.NewAnd(dnf...), `core/complex: attribute "a": DNF exceeds 4096 terms`},
		{NewComplex(meta, opts), where("z >= 1"), `core/complex: unknown attribute "z"`},
		{NewConjunctive(meta, opts), where("a >= 1 AND other.b <= 3"), `core/conjunctive: unknown attribute "other.b"`},
		{NewConjunctive(meta, opts), where("t.z = 2"), `core/conjunctive: unknown attribute "t.z"`},
	} {
		err := featurizeInto(tc.f, make([]float64, tc.f.Dim()), tc.expr)
		if !errors.Is(err, ErrUnsupported) || err.Error() != tc.text {
			t.Errorf("%s: err = %v, want %q marked ErrUnsupported", tc.f.Name(), err, tc.text)
		}
	}
	q := sqlparse.MustParse("SELECT count(*) FROM a, b WHERE a.id = b.a_id AND (a.x = 1 OR b.y = 2)")
	if err := SplitWhereByTable(q, q.Tables, make([]sqlparse.And, 2)); !errors.Is(err, ErrUnsupported) || !strings.Contains(err.Error(), "spans tables") {
		t.Errorf("a conjunct over two tables: err = %v, want a spans-tables error marked ErrUnsupported", err)
	}
	if err := NewComplex(meta, opts).FeaturizeInto(make([]float64, NewComplex(meta, opts).Dim()), where("a = 'x'")); err == nil || errors.Is(err, ErrUnsupported) {
		t.Errorf("an unbound string literal: err = %v, want an error not marked ErrUnsupported", err)
	}
}
