package bench

import (
	"math"
	"slices"
	"testing"

	"qfe/internal/bench/qft"
	"qfe/internal/catalog"
	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/exec"
	"qfe/internal/ml/gb"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// twoTables is a hub+satellite database for the global model's layout tests:
// title(id 0..99, year 1900..2020) and cast_info(movie_id 0..99, role_id
// 1..11), joined cast_info.movie_id -> title.id.
func twoTables(t *testing.T) (*table.DB, *catalog.Schema) {
	t.Helper()
	db := table.NewDB()
	title := table.New("title")
	title.MustAddColumn(table.NewColumn("id", []int64{0, 50, 99}))
	title.MustAddColumn(table.NewColumn("year", []int64{1900, 1990, 2020}))
	castInfo := table.New("cast_info")
	castInfo.MustAddColumn(table.NewColumn("movie_id", []int64{0, 50, 99}))
	castInfo.MustAddColumn(table.NewColumn("role_id", []int64{1, 5, 11}))
	db.MustAdd(title)
	db.MustAdd(castInfo)
	return db, &catalog.Schema{
		Tables: []string{"title", "cast_info"},
		FKs:    []catalog.ForeignKey{{FromTable: "cast_info", FromCol: "movie_id", ToTable: "title", ToCol: "id"}},
	}
}

// bound parses sql and binds it to db, as every caller of a featurizer does.
func bound(t *testing.T, db *table.DB, sql string) *sqlparse.Query {
	t.Helper()
	q := sqlparse.MustParse(sql)
	if err := exec.Bind(q, db); err != nil {
		t.Fatal(err)
	}
	return q
}

// TestGlobalFeaturizerLayout: under every QFT, each table's block sits at its
// schema-order offset and holds what the table's own featurizer writes for
// the table's share of the WHERE, an absent table's block is all zero, and
// the table vector ends the vector.
func TestGlobalFeaturizerLayout(t *testing.T) {
	db, schema := twoTables(t)
	for _, name := range qft.Names() {
		g, err := newGlobal(db, schema, name, core.Options{MaxEntriesPerAttr: 8, AttrSel: true}, estimator.NewGBFactory(gb.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		if name == "conjunctive" && g.feats[0].Dim()+g.feats[1].Dim() != 18+18 {
			// (8+1)+(8+1) per table.
			t.Fatalf("conjunctive block widths %d + %d, want 18 + 18", g.feats[0].Dim(), g.feats[1].Dim())
		}
		for _, tc := range []struct {
			sql    string
			shares [2]string // each table's share, as a one-table WHERE ("": absent)
			bits   [2]float64
		}{
			{"SELECT count(*) FROM title, cast_info WHERE title.id = cast_info.movie_id AND title.year >= 2000 AND cast_info.role_id = 1",
				[2]string{"year >= 2000", "role_id = 1"}, [2]float64{1, 1}},
			{"SELECT count(*) FROM title WHERE year < 1950", [2]string{"year < 1950", ""}, [2]float64{1, 0}},
			{"SELECT count(*) FROM cast_info WHERE role_id = 3 AND movie_id > 40", [2]string{"", "role_id = 3 AND movie_id > 40"}, [2]float64{0, 1}},
		} {
			vec, err := g.featurize(bound(t, db, tc.sql))
			if err != nil {
				t.Fatalf("%s: %s: %v", name, tc.sql, err)
			}
			var want []float64
			for i, share := range tc.shares {
				block := make([]float64, g.feats[i].Dim())
				if share != "" {
					q := bound(t, db, "SELECT count(*) FROM "+schema.Tables[i]+" WHERE "+share)
					if block, err = g.feats[i].Featurize(q.Where); err != nil {
						t.Fatal(err)
					}
				}
				want = append(want, block...)
			}
			want = append(want, tc.bits[:]...)
			if !slices.Equal(vec, want) {
				t.Errorf("%s: %s:\n got %v\nwant %v", name, tc.sql, vec, want)
			}
		}
	}
}

func TestGlobalFeaturizerDistinguishesPresenceFromNoPredicate(t *testing.T) {
	db, schema := twoTables(t)
	g, err := newGlobal(db, schema, "conjunctive", core.Options{MaxEntriesPerAttr: 8, AttrSel: false}, estimator.NewGBFactory(gb.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	// cast_info participates but carries no predicates: its block must be
	// the no-predicate (all-one) encoding, not the absent (all-zero) one.
	vec, err := g.featurize(bound(t, db, "SELECT count(*) FROM title, cast_info WHERE title.id = cast_info.movie_id AND title.year >= 2000"))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vec[16:32] { // title block is 16 wide without attrSel
		if v != 1 {
			t.Fatalf("participating no-predicate block entry %d = %v, want 1", i, v)
		}
	}
}

// TestGlobalOnJoins is one end-to-end pass of the global GB model over the
// join stack: IMDb star schema, training workload, JOB-light-style suite.
// Tiny sizes — correctness of plumbing, not accuracy.
func TestGlobalOnJoins(t *testing.T) {
	db, err := dataset.IMDB(dataset.IMDBConfig{Titles: 600, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	schema := dataset.IMDBSchema()
	trainCfg := workload.DefaultJOBLightConfig()
	trainCfg.Count, trainCfg.Seed = 400, 11
	train, err := workload.JoinTraining(db, schema, trainCfg)
	if err != nil {
		t.Fatal(err)
	}
	testCfg := workload.DefaultJOBLightConfig()
	testCfg.Count, testCfg.Seed = 25, 12
	test, err := workload.JOBLight(db, schema, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	gbCfg := gb.DefaultConfig()
	gbCfg.NumTrees, gbCfg.MaxDepth, gbCfg.Seed = 60, 6, 1
	g, err := newGlobal(db, schema, "conjunctive", core.Options{MaxEntriesPerAttr: 16, AttrSel: true}, estimator.NewGBFactory(gbCfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Train(train); err != nil {
		t.Fatal(err)
	}
	sum, err := estimator.Summarize(g, test)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s on joins: %v", g.Name(), sum)
	if math.IsNaN(sum.Mean) || sum.Median < 1 {
		t.Fatalf("degenerate global summary %v", sum)
	}
}
