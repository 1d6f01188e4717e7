package exec_test

import (
	"context"
	"testing"

	"qfe/internal/dataset"
	"qfe/internal/exec"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// bootForest is the table cardestd boots on, at rows rows.
func bootForest(tb testing.TB, rows int, seed int64) *table.Table {
	tb.Helper()
	forest, err := dataset.Forest(dataset.ForestConfig{Rows: rows, QuantAttrs: 12, BinaryAttrs: 4, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	return forest
}

// TestGeneratorLabelsMatchKernels: the label every workload generator hands
// to training — counted on the dictionaries, through CountManyCtx — is the
// count the retired kernel evaluator gives the same query, for all of the
// four generators' shapes (conjunctive, mixed AND/OR, JOB-light joins with
// and without base tables, one sub-schema) and seeds 1-5.
func TestGeneratorLabelsMatchKernels(t *testing.T) {
	forest := bootForest(t, 3000, 9)
	forestDB := table.NewDB()
	forestDB.MustAdd(forest)
	imdb, err := dataset.IMDB(dataset.IMDBConfig{Titles: 400, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	schema := dataset.IMDBSchema()
	for seed := int64(1); seed <= 5; seed++ {
		conj := workload.ConjConfig{Count: 120, MaxAttrs: 8, MaxNotEquals: 5, Seed: seed}
		join := workload.DefaultJOBLightConfig()
		join.Count, join.Seed = 40, seed
		for _, gen := range []struct {
			name string
			db   *table.DB
			set  func() (workload.Set, error)
		}{
			{"Conjunctive", forestDB, func() (workload.Set, error) { return workload.Conjunctive(forest, conj) }},
			{"Mixed", forestDB, func() (workload.Set, error) {
				return workload.Mixed(forest, workload.MixedConfig{ConjConfig: conj, MaxBranches: 3})
			}},
			{"JOBLight", imdb, func() (workload.Set, error) { return workload.JOBLight(imdb, schema, join) }},
			{"JoinTraining", imdb, func() (workload.Set, error) { return workload.JoinTraining(imdb, schema, join) }},
			{"JoinForTables", imdb, func() (workload.Set, error) {
				return workload.JoinForTables(imdb, schema, []string{"title", "cast_info", "movie_info"}, 40, 4, seed)
			}},
		} {
			set, err := gen.set()
			if err != nil {
				t.Fatalf("%s seed %d: %v", gen.name, seed, err)
			}
			for i, l := range set {
				want, err := exec.CountOracle(gen.db, l.Query)
				if err != nil {
					t.Fatalf("%s seed %d query %d: kernels: %v", gen.name, seed, i, err)
				}
				if l.Card != want {
					t.Fatalf("%s seed %d query %d labeled %d, kernels %d: %s", gen.name, seed, i, l.Card, want, l.Query)
				}
			}
		}
	}
}

// BenchmarkLabelBoot is the label phase of a cardestd boot (-qft complex
// -rows 20000 -train 2000): the 2000 mixed queries the boot keeps, counted
// over the 20 000-row forest on every core, with the 16 column dictionaries
// cold — each iteration drops them first, so their builds are in the figure,
// as they are in setup_s. dict-ms is the part of it spent building them.
func BenchmarkLabelBoot(b *testing.B) {
	forest := bootForest(b, 20_000, 1)
	set, err := workload.Mixed(forest, workload.MixedConfig{
		ConjConfig:  workload.ConjConfig{Count: 2000, MaxAttrs: 8, MaxNotEquals: 5, Seed: 1},
		MaxBranches: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	db := table.NewDB()
	db.MustAdd(forest)
	qs := set.Queries()
	var dictMS float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.DropDictionaries()
		if _, err := exec.CountManyCtx(context.Background(), db, qs); err != nil {
			b.Fatal(err)
		}
		_, took := forest.DictionaryBuilds()
		dictMS += float64(took.Microseconds()) / 1000
	}
	b.ReportMetric(dictMS/float64(b.N), "dict-ms/op")
}
