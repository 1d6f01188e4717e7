package sqlparse_test

import (
	"reflect"
	"sync"
	"testing"

	"qfe/internal/dataset"
	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/testutil"
	"qfe/internal/workload"
)

// Tests of Parse on the SQL the daemon is actually sent: renderings of
// workload.Mixed queries over the forest table (the benchmark's generator
// settings) and the JOB-light join suite.

// mixedSQL renders n generated mixed AND/OR queries over a small forest table.
func mixedSQL(t testing.TB, n int) (*table.DB, []string) {
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
	db := table.NewDB()
	if err := db.Add(forest); err != nil {
		t.Fatal(err)
	}
	sqls := make([]string, len(set))
	for i, l := range set {
		sqls[i] = l.Query.String()
	}
	return db, sqls
}

// TestParseMatchesOracleOnWorkloads: 2000 mixed renderings and the JOB-light
// suite parse to the AST the oracle parser builds, with Parse and into an
// arena that holds them all.
func TestParseMatchesOracleOnWorkloads(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 300
	}
	_, sqls := mixedSQL(t, n)

	imdb, err := dataset.IMDB(dataset.IMDBConfig{Titles: 600, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	suite, err := workload.JOBLight(imdb, dataset.IMDBSchema(), workload.DefaultJOBLightConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range suite {
		sqls = append(sqls, l.Query.String())
	}
	for _, sql := range sqls {
		if err := sqlparse.DiffOracle(sql); err != nil {
			t.Fatal(err)
		}
	}
	if err := sqlparse.DiffArena(sqls); err != nil {
		t.Fatal(err)
	}
}

// TestParseSteadyStateAllocs pins what a request pays before the cache can
// answer it. A parse allocates the AST it returns and nothing else — the
// Query, its table list, one slab of predicate leaves and a node plus an
// exactly-sized Kids per AND/OR — so the mean over mixed queries stays within
// 25 allocations and 4 KiB (measured 21 and 2.4 KB; 79 and 11.4 KB before);
// binding a query without string literals rebuilds nothing.
func TestParseSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector defeats sync.Pool")
	}
	db, sqls := mixedSQL(t, 256)
	for _, sql := range sqls { // warm the parser pool on the largest query
		sqlparse.MustParse(sql)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sqlparse.Parse(sqls[i%len(sqls)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	if res.AllocsPerOp() > 25 || res.AllocedBytesPerOp() > 4096 {
		t.Errorf("Parse of a mixed query: %d allocs/op, %d B/op; want <= 25 and <= 4096",
			res.AllocsPerOp(), res.AllocedBytesPerOp())
	}

	// Into an arena reset every 64 parses, as a request of 64 queries resets
	// its own, the same parses allocate nothing once the arena has grown.
	var a sqlparse.Arena
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%64 == 0 {
				a.Reset()
			}
			if _, err := a.Parse(sqls[i%len(sqls)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	t.Logf("arena: %d allocs/op, %d B/op; arena of %d B", res.AllocsPerOp(), res.AllocedBytesPerOp(), a.Size())
	if res.AllocsPerOp() > 0 {
		t.Errorf("Arena.Parse of a mixed query: %d allocs/op, %d B/op; want 0", res.AllocsPerOp(), res.AllocedBytesPerOp())
	}

	qs := make([]*sqlparse.Query, len(sqls))
	for i, sql := range sqls {
		qs[i] = sqlparse.MustParse(sql)
	}
	i := 0
	if got := testing.AllocsPerRun(len(qs), func() {
		if err := exec.Bind(qs[i%len(qs)], db); err != nil {
			t.Fatal(err)
		}
		i++
	}); got != 0 {
		t.Errorf("Bind of a numeric query allocs/op = %v, want 0", got)
	}
}

// TestConcurrentParsesShareNothing: eight goroutines parse the corpus over
// and over, so every parser in the pool is recycled many times while the
// ASTs of earlier parses are still held. Each must stay deeply equal to the
// single-threaded parse of the same text: a token buffer, kids stack or
// predicate slab shared between two parses would corrupt one of them (and
// trip the race detector).
func TestConcurrentParsesShareNothing(t *testing.T) {
	_, sqls := mixedSQL(t, 64)
	sqls = append(sqls,
		"SELECT count(*) FROM a, b WHERE a.id = b.a_id AND a.x > 0 AND (b.y = 1 OR b.y = 2)",
		"SELECT count(*) FROM t WHERE s = 'it''s' AND n LIKE 'ab%' GROUP BY t . b, c",
	)
	want := make([]*sqlparse.Query, len(sqls))
	for i, sql := range sqls {
		want[i] = sqlparse.MustParse(sql)
	}
	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			held := make([]*sqlparse.Query, len(sqls))
			for r := 0; r < rounds; r++ {
				for k := range sqls {
					i := (k + w) % len(sqls)
					q, err := sqlparse.Parse(sqls[i])
					if err != nil {
						t.Error(err)
						return
					}
					held[i] = q
				}
			}
			// Every AST was built before the buffers behind it were reused
			// by this and the other goroutines' later parses.
			for i, q := range held {
				if !reflect.DeepEqual(q, want[i]) {
					t.Errorf("worker %d: concurrent parse of %q differs from the single-threaded parse:\n  got  %s\n  want %s", w, sqls[i], q, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkParseMixed is the parse a cache miss pays, alone: the texts
// BenchmarkFeaturizeMixed (internal/core) featurizes — the benchmark's mixed
// AND/OR traffic over a 20 000-row forest, rendered — parsed into an arena
// reset every 64 parses, as a 64-query request resets its own.
func BenchmarkParseMixed(b *testing.B) {
	forest, err := dataset.Forest(dataset.ForestConfig{Rows: 20000, QuantAttrs: 12, BinaryAttrs: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	set, err := workload.Mixed(forest, workload.MixedConfig{
		ConjConfig:  workload.ConjConfig{Count: 1024, MaxAttrs: 8, MaxNotEquals: 5, Seed: 1_000_004},
		MaxBranches: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	sqls := make([]string, len(set))
	for i, l := range set {
		sqls[i] = l.Query.String()
	}
	var a sqlparse.Arena
	for _, sql := range sqls { // grow the arena and the parser pool
		if _, err := a.Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
	a.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			a.Reset()
		}
		if _, err := a.Parse(sqls[i%len(sqls)]); err != nil {
			b.Fatal(err)
		}
	}
}
