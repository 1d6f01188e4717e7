package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"qfe/internal/catalog"
	"qfe/internal/dataset"
	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// The generators as they were before generate: each draws one query, labels
// it on the calling goroutine, keeps it if non-empty, and only then draws the
// next. They are the oracle the batched helper is held to — same queries,
// same order, same cardinalities, same give-up point.

// labelOracle counts q against db and appends it to dst when non-empty.
func labelOracle(db *table.DB, q *sqlparse.Query, dst Set) (Set, error) {
	card, err := exec.Count(db, q)
	if err != nil || card == 0 {
		return dst, err
	}
	return append(dst, Labeled{Query: q, Card: card}), nil
}

func conjunctiveOracle(tbl *table.Table, cfg ConjConfig) (Set, error) {
	cfg, err := cfg.normalized(tbl.NumCols())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := singleDB(tbl)
	names := tbl.ColumnNames()

	var out Set
	for attempts := 0; len(out) < cfg.Count; attempts++ {
		if attempts > maxAttemptFactor*cfg.Count {
			return nil, errTooManyRejects
		}
		anchor := rng.Intn(tbl.NumRows())
		k := cfg.MinAttrs + rng.Intn(cfg.MaxAttrs-cfg.MinAttrs+1)
		attrs := pickDistinctAttrs(rng, names, k)
		var conj []sqlparse.Expr
		for _, a := range attrs {
			conj = append(conj, attrPreds(rng, tbl, a, anchor, cfg.MaxNotEquals)...)
		}
		q := &sqlparse.Query{Tables: []string{tbl.Name}, Where: sqlparse.NewAnd(conj...)}
		if out, err = labelOracle(db, q, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func mixedOracle(tbl *table.Table, cfg MixedConfig) (Set, error) {
	base, err := cfg.ConjConfig.normalized(tbl.NumCols())
	if err != nil {
		return nil, err
	}
	if cfg.MaxBranches < 1 {
		return nil, fmt.Errorf("workload: MaxBranches = %d, want >= 1", cfg.MaxBranches)
	}
	rng := rand.New(rand.NewSource(base.Seed))
	db := singleDB(tbl)
	names := tbl.ColumnNames()

	var out Set
	for attempts := 0; len(out) < base.Count; attempts++ {
		if attempts > maxAttemptFactor*base.Count {
			return nil, errTooManyRejects
		}
		anchor := rng.Intn(tbl.NumRows())
		k := base.MinAttrs + rng.Intn(base.MaxAttrs-base.MinAttrs+1)
		attrs := pickDistinctAttrs(rng, names, k)
		var compounds []sqlparse.Expr
		for _, a := range attrs {
			m := 1 + rng.Intn(cfg.MaxBranches)
			var branches []sqlparse.Expr
			branches = append(branches, sqlparse.NewAnd(attrPreds(rng, tbl, a, anchor, base.MaxNotEquals)...))
			for b := 1; b < m; b++ {
				other := rng.Intn(tbl.NumRows())
				branches = append(branches, sqlparse.NewAnd(attrPreds(rng, tbl, a, other, base.MaxNotEquals)...))
			}
			compounds = append(compounds, sqlparse.NewOr(branches...))
		}
		q := &sqlparse.Query{Tables: []string{tbl.Name}, Where: sqlparse.NewAnd(compounds...)}
		if out, err = labelOracle(db, q, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// generateJoinsOracle also reports how many queries it drew, so a test can
// tell a configuration that rejects candidates from one that never does.
func generateJoinsOracle(db *table.DB, schema *catalog.Schema, cfg JoinConfig, includeBase bool) (Set, int, error) {
	satellites := satelliteTables(schema)
	if cfg.MaxJoins <= 0 || cfg.MaxJoins > len(satellites) {
		cfg.MaxJoins = len(satellites)
	}
	if cfg.MinJoins < 1 {
		cfg.MinJoins = 1
	}
	if cfg.MaxPreds < 1 {
		cfg.MaxPreds = 5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var out Set
	attempts := 0
	for ; len(out) < cfg.Count; attempts++ {
		if attempts > maxAttemptFactor*cfg.Count {
			return nil, attempts, errTooManyRejects
		}
		var tables []string
		if includeBase && rng.Intn(3) == 0 {
			all := schema.Tables
			tables = []string{all[rng.Intn(len(all))]}
		} else {
			nJoins := cfg.MinJoins + rng.Intn(cfg.MaxJoins-cfg.MinJoins+1)
			if includeBase {
				nJoins = 1 + rng.Intn(cfg.MaxJoins)
			}
			perm := rng.Perm(len(satellites))
			tables = []string{hubTable(schema)}
			for i := 0; i < nJoins; i++ {
				tables = append(tables, satellites[perm[i]])
			}
		}
		q, err := buildJoinQuery(db, schema, rng, tables, cfg.MaxPreds)
		if err != nil {
			return nil, attempts, err
		}
		if out, err = labelOracle(db, q, out); err != nil {
			return nil, attempts, err
		}
	}
	return out, attempts, nil
}

func joinForTablesOracle(db *table.DB, schema *catalog.Schema, tables []string, count, maxPreds int, seed int64) (Set, int, error) {
	rng := rand.New(rand.NewSource(seed))
	var out Set
	attempts := 0
	for ; len(out) < count; attempts++ {
		if attempts > maxAttemptFactor*count {
			return nil, attempts, errTooManyRejects
		}
		q, err := buildJoinQuery(db, schema, rng, tables, maxPreds)
		if err != nil {
			return nil, attempts, err
		}
		if out, err = labelOracle(db, q, out); err != nil {
			return nil, attempts, err
		}
	}
	return out, attempts, nil
}

// sameSet fails the test unless got and want hold the same queries with the
// same labels in the same order.
func sameSet(t *testing.T, what string, got, want Set) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d queries, oracle has %d", what, len(got), len(want))
	}
	for i := range want {
		if g, w := got[i].Query.String(), want[i].Query.String(); g != w {
			t.Fatalf("%s: query %d differs\n got  %s\n want %s", what, i, g, w)
		}
		if got[i].Card != want[i].Card {
			t.Fatalf("%s: query %d labeled %d, oracle %d", what, i, got[i].Card, want[i].Card)
		}
	}
}

func TestGeneratorsMatchSequentialOracle(t *testing.T) {
	forest := testForest(t)
	imdb, _ := testIMDB(t)
	schema := dataset.IMDBSchema()
	rejected := 0
	for seed := int64(1); seed <= 5; seed++ {
		conj := ConjConfig{Count: 120, MaxAttrs: 5, MaxNotEquals: 3, Seed: seed}
		got, err := Conjunctive(forest, conj)
		if err != nil {
			t.Fatal(err)
		}
		want, err := conjunctiveOracle(forest, conj)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, fmt.Sprintf("Conjunctive seed %d", seed), got, want)

		mixed := MixedConfig{ConjConfig: conj, MaxBranches: 3}
		if got, err = Mixed(forest, mixed); err != nil {
			t.Fatal(err)
		}
		if want, err = mixedOracle(forest, mixed); err != nil {
			t.Fatal(err)
		}
		sameSet(t, fmt.Sprintf("Mixed seed %d", seed), got, want)

		// Five predicates over a five-way join of 400 titles come back empty
		// often: this is the configuration that makes generate go round.
		join := JoinConfig{Count: 40, MinJoins: 2, MaxJoins: 5, MaxPreds: 5, Seed: seed}
		for _, includeBase := range []bool{false, true} {
			if got, err = generateJoins(imdb, schema, join, includeBase); err != nil {
				t.Fatal(err)
			}
			var draws int
			if want, draws, err = generateJoinsOracle(imdb, schema, join, includeBase); err != nil {
				t.Fatal(err)
			}
			rejected += draws - len(want)
			sameSet(t, fmt.Sprintf("generateJoins seed %d base %v", seed, includeBase), got, want)
		}

		tables := []string{"title", "cast_info", "movie_keyword"}
		if got, err = JoinForTables(imdb, schema, tables, 25, 5, seed); err != nil {
			t.Fatal(err)
		}
		var draws int
		if want, draws, err = joinForTablesOracle(imdb, schema, tables, 25, 5, seed); err != nil {
			t.Fatal(err)
		}
		rejected += draws - len(want)
		sameSet(t, fmt.Sprintf("JoinForTables seed %d", seed), got, want)
	}
	if rejected == 0 {
		t.Error("no join candidate was rejected: the test never made generate label a second batch")
	}
}

// TestGeneratorPrefixProperty: asking for more queries only appends — what
// cmd/bench leans on when it generates a surplus and keeps a prefix.
func TestGeneratorPrefixProperty(t *testing.T) {
	forest := testForest(t)
	imdb, _ := testIMDB(t)
	schema := dataset.IMDBSchema()
	const n, k = 30, 17

	gens := map[string]func(count int) (Set, error){
		"Conjunctive": func(count int) (Set, error) {
			return Conjunctive(forest, ConjConfig{Count: count, MaxAttrs: 5, MaxNotEquals: 3, Seed: 3})
		},
		"Mixed": func(count int) (Set, error) {
			return Mixed(forest, MixedConfig{ConjConfig: ConjConfig{Count: count, MaxAttrs: 5, MaxNotEquals: 3, Seed: 3}, MaxBranches: 3})
		},
		"JOBLight": func(count int) (Set, error) {
			return JOBLight(imdb, schema, JoinConfig{Count: count, MinJoins: 2, MaxJoins: 5, MaxPreds: 5, Seed: 3})
		},
		"JoinTraining": func(count int) (Set, error) {
			return JoinTraining(imdb, schema, JoinConfig{Count: count, MinJoins: 2, MaxJoins: 5, MaxPreds: 5, Seed: 3})
		},
		"JoinForTables": func(count int) (Set, error) {
			return JoinForTables(imdb, schema, []string{"title", "movie_info"}, count, 5, 3)
		},
	}
	for name, gen := range gens {
		short, err := gen(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		long, err := gen(n + k)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(long) != n+k {
			t.Fatalf("%s: %d queries, want %d", name, len(long), n+k)
		}
		sameSet(t, name+" prefix", long[:n], short)
	}
}

// TestGenerateGivesUpWhereTheLoopDid: a draw that never yields a non-empty
// query is abandoned after maxAttemptFactor*count+1 draws, no more and no
// fewer, and a real generator over a join that cannot match reports the same
// error as its oracle.
func TestGenerateGivesUpWhereTheLoopDid(t *testing.T) {
	forest := testForest(t)
	col := forest.Columns()[0]
	empty := &sqlparse.Query{Tables: []string{forest.Name},
		Where: &sqlparse.Pred{Attr: col.Name, Op: sqlparse.OpGt, Val: col.Max()}}
	for _, count := range []int{1, 3} {
		draws := 0
		_, err := generate(singleDB(forest), count, func() (*sqlparse.Query, error) {
			draws++
			return empty, nil
		})
		if !errors.Is(err, errTooManyRejects) {
			t.Fatalf("count %d: err = %v, want errTooManyRejects", count, err)
		}
		if want := maxAttemptFactor*count + 1; draws != want {
			t.Errorf("count %d: gave up after %d draws, the sequential loop drew %d", count, draws, want)
		}
	}

	// An IMDb whose cast_info points at no title: every join is empty.
	imdb, _ := testIMDB(t)
	orphaned := table.NewDB()
	for _, name := range dataset.IMDBSchema().Tables {
		src := imdb.Table(name)
		if name != "cast_info" {
			orphaned.MustAdd(src)
			continue
		}
		dst := table.New(name)
		for _, c := range src.Columns() {
			vals := append([]int64(nil), c.Vals...)
			if c.Name == "movie_id" {
				for i := range vals {
					vals[i] = -1
				}
			}
			dst.MustAddColumn(table.NewColumn(c.Name, vals))
		}
		orphaned.MustAdd(dst)
	}
	schema := dataset.IMDBSchema()
	tables := []string{"title", "cast_info"}
	if _, err := JoinForTables(orphaned, schema, tables, 2, 5, 1); !errors.Is(err, errTooManyRejects) {
		t.Errorf("JoinForTables over an empty join: err = %v, want errTooManyRejects", err)
	}
	if _, draws, err := joinForTablesOracle(orphaned, schema, tables, 2, 5, 1); !errors.Is(err, errTooManyRejects) || draws != 2*maxAttemptFactor+1 {
		t.Errorf("oracle over an empty join: err = %v after %d draws", err, draws)
	}
}
