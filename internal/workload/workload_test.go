package workload

import (
	"bytes"
	"strings"
	"testing"

	"qfe/internal/catalog"
	"qfe/internal/dataset"
	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

func testForest(t *testing.T) *table.Table {
	t.Helper()
	tbl, err := dataset.Forest(dataset.ForestConfig{Rows: 3000, QuantAttrs: 6, BinaryAttrs: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestConjunctiveWorkload(t *testing.T) {
	tbl := testForest(t)
	cfg := ConjConfig{Count: 200, MaxAttrs: 5, MaxNotEquals: 3, Seed: 1}
	set, err := Conjunctive(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 200 {
		t.Fatalf("generated %d queries, want 200", len(set))
	}
	db := table.NewDB()
	db.MustAdd(tbl)
	for i, l := range set {
		if l.Card < 1 {
			t.Fatalf("query %d has empty result: %s", i, l.Query)
		}
		if !sqlparse.IsConjunctive(l.Query.Where) {
			t.Fatalf("query %d is not conjunctive: %s", i, l.Query)
		}
		if k := sqlparse.NumAttributes(l.Query); k < 1 || k > 5 {
			t.Fatalf("query %d mentions %d attributes, want 1..5", i, k)
		}
		// Spot-check labels against the executor.
		if i < 20 {
			got, err := exec.Count(db, l.Query)
			if err != nil {
				t.Fatal(err)
			}
			if got != l.Card {
				t.Fatalf("query %d label %d != true %d", i, l.Card, got)
			}
		}
	}
}

func TestConjunctiveDeterminism(t *testing.T) {
	tbl := testForest(t)
	cfg := ConjConfig{Count: 50, MaxAttrs: 4, MaxNotEquals: 2, Seed: 7}
	a, err := Conjunctive(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Conjunctive(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Query.String() != b[i].Query.String() || a[i].Card != b[i].Card {
			t.Fatal("workload generation not deterministic")
		}
	}
}

func TestMixedWorkload(t *testing.T) {
	tbl := testForest(t)
	set, err := Mixed(tbl, MixedConfig{
		ConjConfig:  ConjConfig{Count: 150, MaxAttrs: 4, MaxNotEquals: 5, Seed: 2},
		MaxBranches: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 150 {
		t.Fatalf("generated %d queries, want 150", len(set))
	}
	sawDisjunction := false
	for i, l := range set {
		if l.Card < 1 {
			t.Fatalf("query %d has empty result", i)
		}
		// Every mixed query must satisfy Definition 3.3.
		if _, err := sqlparse.CompoundPredicates(l.Query.Where); err != nil {
			t.Fatalf("query %d is not a mixed query: %v\n%s", i, err, l.Query)
		}
		if !sqlparse.IsConjunctive(l.Query.Where) {
			sawDisjunction = true
		}
	}
	if !sawDisjunction {
		t.Error("mixed workload produced no disjunctions at all")
	}
}

func TestMixedQueriesRoundTripThroughParser(t *testing.T) {
	tbl := testForest(t)
	set, err := Mixed(tbl, MixedConfig{
		ConjConfig:  ConjConfig{Count: 30, MaxAttrs: 3, MaxNotEquals: 5, Seed: 3},
		MaxBranches: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := table.NewDB()
	db.MustAdd(tbl)
	for _, l := range set {
		q2, err := sqlparse.Parse(l.Query.String())
		if err != nil {
			t.Fatalf("re-parse failed: %v\n%s", err, l.Query)
		}
		card, err := exec.Count(db, q2)
		if err != nil {
			t.Fatal(err)
		}
		if card != l.Card {
			t.Fatalf("re-parsed query count %d != label %d for %s", card, l.Card, l.Query)
		}
	}
}

func TestSplitAndDriftSplit(t *testing.T) {
	tbl := testForest(t)
	set, err := Conjunctive(tbl, ConjConfig{Count: 100, MaxAttrs: 6, MaxNotEquals: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	train, test := set.Split(80)
	if len(train) != 80 || len(test) != 20 {
		t.Fatalf("split sizes %d/%d", len(train), len(test))
	}
	lo, hi := set.SplitByAttrs(2)
	for _, l := range lo {
		if sqlparse.NumAttributes(l.Query) > 2 {
			t.Fatal("drift train side has high-dimensional query")
		}
	}
	for _, l := range hi {
		if sqlparse.NumAttributes(l.Query) <= 2 {
			t.Fatal("drift test side has low-dimensional query")
		}
	}
	if len(lo)+len(hi) != len(set) {
		t.Fatal("drift split loses queries")
	}
}

func TestGrouping(t *testing.T) {
	tbl := testForest(t)
	set, err := Conjunctive(tbl, ConjConfig{Count: 100, MaxAttrs: 4, MaxNotEquals: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	byAttrs := set.GroupByAttrs()
	total := 0
	for k, sub := range byAttrs {
		total += len(sub)
		for _, l := range sub {
			if sqlparse.NumAttributes(l.Query) != k {
				t.Fatal("GroupByAttrs mislabeled a query")
			}
		}
	}
	if total != len(set) {
		t.Fatal("GroupByAttrs loses queries")
	}
	byPreds := set.GroupByPreds()
	total = 0
	for k, sub := range byPreds {
		total += len(sub)
		for _, l := range sub {
			if sqlparse.NumPredicates(l.Query) != k {
				t.Fatal("GroupByPreds mislabeled a query")
			}
		}
	}
	if total != len(set) {
		t.Fatal("GroupByPreds loses queries")
	}
}

func TestCardsAndMeanCard(t *testing.T) {
	s := Set{{Card: 10}, {Card: 30}}
	cards := s.Cards()
	if cards[0] != 10 || cards[1] != 30 {
		t.Fatal("Cards wrong")
	}
	if s.MeanCard() != 20 {
		t.Fatal("MeanCard wrong")
	}
	if (Set{}).MeanCard() != 0 {
		t.Fatal("empty MeanCard should be 0")
	}
}

func TestConfigValidation(t *testing.T) {
	tbl := testForest(t)
	if _, err := Conjunctive(tbl, ConjConfig{Count: 0}); err == nil {
		t.Error("Count=0 accepted")
	}
	if _, err := Conjunctive(tbl, ConjConfig{Count: 1, MinAttrs: 9, MaxAttrs: 3}); err == nil {
		t.Error("MinAttrs > MaxAttrs accepted")
	}
	if _, err := Mixed(tbl, MixedConfig{ConjConfig: ConjConfig{Count: 1}, MaxBranches: 0}); err == nil {
		t.Error("MaxBranches=0 accepted")
	}
}

func testIMDB(t *testing.T) (*table.DB, *dataset.IMDBConfig) {
	t.Helper()
	cfg := dataset.IMDBConfig{Titles: 400, Seed: 6}
	db, err := dataset.IMDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db, &cfg
}

func TestJOBLightSuite(t *testing.T) {
	db, _ := testIMDB(t)
	schema := dataset.IMDBSchema()
	cfg := DefaultJOBLightConfig()
	cfg.Count = 30
	set, err := JOBLight(db, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 30 {
		t.Fatalf("generated %d queries, want 30", len(set))
	}
	for i, l := range set {
		q := l.Query
		if l.Card < 1 {
			t.Fatalf("query %d empty", i)
		}
		if len(q.Joins) < 2 || len(q.Joins) > 5 {
			t.Fatalf("query %d has %d joins, want 2..5", i, len(q.Joins))
		}
		if len(q.Tables) != len(q.Joins)+1 {
			t.Fatalf("query %d: %d tables for %d joins", i, len(q.Tables), len(q.Joins))
		}
		if q.Tables[0] != "title" {
			t.Fatalf("query %d does not start at the hub", i)
		}
		np := sqlparse.NumPredicates(q)
		if np < 1 || np > 6 {
			t.Fatalf("query %d has %d predicates", i, np)
		}
		// At most one range (<= one Ge and one Le) per attribute; equality
		// attrs see exactly one predicate.
		perAttr := sqlparse.PredsPerAttr(q.Where)
		for attr, preds := range perAttr {
			ge, le, eq := 0, 0, 0
			for _, p := range preds {
				switch p.Op {
				case sqlparse.OpGe:
					ge++
				case sqlparse.OpLe:
					le++
				case sqlparse.OpEq:
					eq++
				default:
					t.Fatalf("query %d: unexpected operator %v on %s", i, p.Op, attr)
				}
			}
			if ge > 1 || le > 1 || eq > 1 || (eq > 0 && ge+le > 0) {
				t.Fatalf("query %d: attribute %s predicated %d times beyond one range", i, attr, len(preds))
			}
		}
		// Queries must round-trip through the parser.
		if _, err := sqlparse.Parse(q.String()); err != nil {
			t.Fatalf("query %d does not re-parse: %v\n%s", i, err, q)
		}
	}
}

func TestJoinTrainingCoversSubSchemas(t *testing.T) {
	db, _ := testIMDB(t)
	schema := dataset.IMDBSchema()
	cfg := DefaultJOBLightConfig()
	cfg.Count = 200
	cfg.Seed = 8
	set, err := JoinTraining(db, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawBase, sawJoin := false, false
	for _, l := range set {
		if len(l.Query.Tables) == 1 {
			sawBase = true
		} else {
			sawJoin = true
		}
	}
	if !sawBase || !sawJoin {
		t.Errorf("training workload should mix base-table and join queries (base=%v join=%v)", sawBase, sawJoin)
	}
}

func TestJoinConfigValidation(t *testing.T) {
	db, _ := testIMDB(t)
	schema := dataset.IMDBSchema()
	if _, err := JOBLight(db, schema, JoinConfig{Count: 0}); err == nil {
		t.Error("Count=0 accepted")
	}
	if _, err := JOBLight(db, schema, JoinConfig{Count: 1, MinJoins: 5, MaxJoins: 2}); err == nil {
		t.Error("MinJoins > MaxJoins accepted")
	}
}

func TestReadWriteSetRoundTrip(t *testing.T) {
	tbl := testForest(t)
	set, err := Conjunctive(tbl, ConjConfig{Count: 40, MaxAttrs: 4, MaxNotEquals: 2, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSet(&buf, singleDB(tbl))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(set) {
		t.Fatalf("round trip length %d, want %d", len(back), len(set))
	}
	for i := range set {
		if back[i].Card != set[i].Card {
			t.Fatalf("query %d card %d, want %d", i, back[i].Card, set[i].Card)
		}
		if back[i].Query.String() != set[i].Query.String() {
			t.Fatalf("query %d changed:\n  %s\n  %s", i, set[i].Query, back[i].Query)
		}
	}
}

// tinyDB is a table t with one column a, for the workload-file tests.
func tinyDB() *table.DB {
	tbl := table.New("t")
	tbl.MustAddColumn(table.NewColumn("b", []int64{0, 1}))
	tbl.MustAddColumn(table.NewColumn("a", []int64{0, 1}))
	return singleDB(tbl)
}

func TestReadSetSkipsCommentsAndBlanks(t *testing.T) {
	src := "-- a comment\n\nSELECT count(*) FROM t WHERE a = 1; -- cardinality: 42\n"
	set, err := ReadSet(strings.NewReader(src), tinyDB())
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 || set[0].Card != 42 {
		t.Fatalf("parsed %v", set)
	}
	if p := set[0].Query.Where.(*sqlparse.Pred); p.Col != 2 {
		t.Errorf("a loaded query's predicate carries stamp %d, want 2 (a is t's second column)", p.Col)
	}
}

func TestReadSetErrors(t *testing.T) {
	cases := []string{
		"SELECT count(*) FROM t WHERE a = 1;\n",                     // no label
		"SELECT count(*) FROM t WHERE a = 1; -- cardinality: abc\n", // bad number
		"NOT SQL AT ALL -- cardinality: 5\n",                        // bad SQL
		"SELECT count(*) FROM t WHERE c = 1; -- cardinality: 5\n",   // unknown column
	}
	for _, src := range cases {
		if _, err := ReadSet(strings.NewReader(src), tinyDB()); err == nil {
			t.Errorf("ReadSet(%q) succeeded, want error", src)
		}
	}
}

func TestJoinForTables(t *testing.T) {
	db, _ := testIMDB(t)
	schema := dataset.IMDBSchema()
	tables := []string{"title", "cast_info"}
	set, err := JoinForTables(db, schema, tables, 15, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 15 {
		t.Fatalf("got %d queries, want 15", len(set))
	}
	for i, l := range set {
		if len(l.Query.Tables) != 2 {
			t.Fatalf("query %d spans %v", i, l.Query.Tables)
		}
		if l.Card < 1 {
			t.Fatalf("query %d empty", i)
		}
	}
	// Disconnected table sets must be rejected.
	if _, err := JoinForTables(db, schema, []string{"cast_info", "movie_keyword"}, 5, 4, 3); err == nil {
		t.Error("disconnected sub-schema accepted")
	}
	if _, err := JoinForTables(db, schema, tables, 0, 4, 3); err == nil {
		t.Error("count=0 accepted")
	}
}

func TestStratifiedJoinTrainingCoversAllSubSchemas(t *testing.T) {
	db, _ := testIMDB(t)
	schema := dataset.IMDBSchema()
	per := 3
	set, err := StratifiedJoinTraining(db, schema, per, 2, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	subs := schema.ConnectedSubSchemas(2)
	if len(set) != per*len(subs) {
		t.Fatalf("got %d queries, want %d", len(set), per*len(subs))
	}
	seen := map[string]int{}
	for _, l := range set {
		seen[catalog.SubSchemaKey(l.Query.Tables)]++
	}
	for _, sub := range subs {
		if seen[catalog.SubSchemaKey(sub)] != per {
			t.Errorf("sub-schema %v has %d queries, want %d", sub, seen[catalog.SubSchemaKey(sub)], per)
		}
	}
}

func TestGroupByWorkload(t *testing.T) {
	tbl := testForest(t)
	set, err := GroupBy(tbl, GroupByConfig{Count: 60, MaxAttrs: 3, MaxGroupAttrs: 2, MaxNotEquals: 2, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 60 {
		t.Fatalf("got %d queries, want 60", len(set))
	}
	db := table.NewDB()
	db.MustAdd(tbl)
	for i, l := range set {
		if len(l.Query.GroupBy) < 1 || len(l.Query.GroupBy) > 2 {
			t.Fatalf("query %d has %d grouping attrs", i, len(l.Query.GroupBy))
		}
		if l.Card < 1 {
			t.Fatalf("query %d has zero groups", i)
		}
		// Selection and grouping attributes must not overlap.
		sel := map[string]bool{}
		for _, p := range sqlparse.CollectPreds(l.Query.Where) {
			sel[p.Attr] = true
		}
		for _, g := range l.Query.GroupBy {
			if sel[g] {
				t.Fatalf("query %d groups by a selected attribute %q", i, g)
			}
		}
		// Spot-check labels.
		if i < 10 {
			got, err := exec.CountGroups(db, l.Query)
			if err != nil {
				t.Fatal(err)
			}
			if got != l.Card {
				t.Fatalf("query %d label %d != true %d", i, l.Card, got)
			}
		}
	}
}

func TestGroupByConfigValidation(t *testing.T) {
	tbl := testForest(t)
	if _, err := GroupBy(tbl, GroupByConfig{Count: 0, MaxGroupAttrs: 1}); err == nil {
		t.Error("Count=0 accepted")
	}
	if _, err := GroupBy(tbl, GroupByConfig{Count: 1, MaxGroupAttrs: 0}); err == nil {
		t.Error("MaxGroupAttrs=0 accepted")
	}
}
