package core

import (
	"testing"

	"qfe/internal/catalog"
	"qfe/internal/sqlparse"
)

// twoTableSchema builds a hub+satellite schema for the join-adapter tests.
func twoTableSchema() (*catalog.Schema, map[string]*TableMeta) {
	schema := &catalog.Schema{
		Tables: []string{"title", "cast_info"},
		FKs: []catalog.ForeignKey{
			{FromTable: "cast_info", FromCol: "movie_id", ToTable: "title", ToCol: "id"},
		},
	}
	metas := map[string]*TableMeta{
		"title": NewTableMetaFromAttrs("title", []AttrMeta{
			{Name: "id", Min: 0, Max: 99},
			{Name: "year", Min: 1900, Max: 2020},
		}, 8),
		"cast_info": NewTableMetaFromAttrs("cast_info", []AttrMeta{
			{Name: "movie_id", Min: 0, Max: 99},
			{Name: "role_id", Min: 1, Max: 11},
		}, 8),
	}
	return schema, metas
}

func TestGlobalFeaturizerLayout(t *testing.T) {
	schema, metas := twoTableSchema()
	g, err := NewGlobalFeaturizer(schema, metas, "conjunctive", Options{MaxEntriesPerAttr: 8, AttrSel: true})
	if err != nil {
		t.Fatal(err)
	}
	// Per-table dims: title = (8+1)+(8+1) = 18, cast_info = 18; plus 2
	// table-vector entries.
	if g.Dim() != 18+18+2 {
		t.Fatalf("Dim = %d, want 38", g.Dim())
	}
	q := sqlparse.MustParse("SELECT count(*) FROM title, cast_info WHERE title.id = cast_info.movie_id AND title.year >= 2000 AND cast_info.role_id = 1")
	vec, err := g.Featurize(stampQuery(metas, q))
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != g.Dim() {
		t.Fatalf("vector length %d, want %d", len(vec), g.Dim())
	}
	// Table bit-vector trailing block: both tables participate.
	if vec[36] != 1 || vec[37] != 1 {
		t.Errorf("table vector = %v, want [1 1]", vec[36:38])
	}

	// Single-table query: absent table contributes an all-zero block, and
	// its table bit is 0.
	q2 := sqlparse.MustParse("SELECT count(*) FROM title WHERE year >= 2000")
	vec2, err := g.Featurize(stampQuery(metas, q2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 18; i < 36; i++ {
		if vec2[i] != 0 {
			t.Fatalf("absent table block entry %d = %v, want 0", i, vec2[i])
		}
	}
	if vec2[36] != 1 || vec2[37] != 0 {
		t.Errorf("table vector = %v, want [1 0]", vec2[36:38])
	}
}

func TestGlobalFeaturizerDistinguishesPresenceFromNoPredicate(t *testing.T) {
	schema, metas := twoTableSchema()
	g, err := NewGlobalFeaturizer(schema, metas, "conjunctive", Options{MaxEntriesPerAttr: 8, AttrSel: false})
	if err != nil {
		t.Fatal(err)
	}
	// cast_info participates but carries no predicates: its block must be
	// the no-predicate (all-one) encoding, not the absent (all-zero) one.
	q := sqlparse.MustParse("SELECT count(*) FROM title, cast_info WHERE title.id = cast_info.movie_id AND title.year >= 2000")
	vec, err := g.Featurize(stampQuery(metas, q))
	if err != nil {
		t.Fatal(err)
	}
	ciBlock := vec[16:32] // title block is 16 wide without attrSel
	for i, v := range ciBlock {
		if v != 1 {
			t.Fatalf("participating no-predicate block entry %d = %v, want 1", i, v)
		}
	}
}

func TestMSCNFeaturizerOriginal(t *testing.T) {
	schema, metas := twoTableSchema()
	m, err := NewMSCNFeaturizer(schema, metas, MSCNOriginal, Options{MaxEntriesPerAttr: 8, AttrSel: true})
	if err != nil {
		t.Fatal(err)
	}
	// 4 attributes across the schema; PredDim = 4 + 3 + 1.
	if m.PredDim() != 8 {
		t.Fatalf("PredDim = %d, want 8", m.PredDim())
	}
	if m.TableDim() != 2 || m.JoinDim() != 1 {
		t.Fatalf("TableDim=%d JoinDim=%d", m.TableDim(), m.JoinDim())
	}
	q := sqlparse.MustParse("SELECT count(*) FROM title, cast_info WHERE title.id = cast_info.movie_id AND title.year > 2000 AND title.year < 2010")
	sets, err := m.Featurize(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets.Tables) != 2 {
		t.Errorf("tables set size %d, want 2", len(sets.Tables))
	}
	if len(sets.Joins) != 1 {
		t.Errorf("joins set size %d, want 1", len(sets.Joins))
	}
	// Original mode: one vector per simple predicate.
	if len(sets.Preds) != 2 {
		t.Errorf("preds set size %d, want 2 (per-predicate)", len(sets.Preds))
	}
}

func TestMSCNFeaturizerPerAttribute(t *testing.T) {
	schema, metas := twoTableSchema()
	m, err := NewMSCNFeaturizer(schema, metas, MSCNPerAttribute, Options{MaxEntriesPerAttr: 8, AttrSel: true})
	if err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParse("SELECT count(*) FROM title, cast_info WHERE title.id = cast_info.movie_id AND title.year > 2000 AND title.year < 2010")
	sets, err := m.Featurize(q)
	if err != nil {
		t.Fatal(err)
	}
	// Per-attribute mode: both predicates on year collapse to one vector.
	if len(sets.Preds) != 1 {
		t.Fatalf("preds set size %d, want 1 (per-attribute)", len(sets.Preds))
	}
	if len(sets.Preds[0]) != m.PredDim() {
		t.Fatalf("pred vector dim %d, want %d", len(sets.Preds[0]), m.PredDim())
	}
	// The per-attribute mode supports disjunctions; the original must not.
	qOr := sqlparse.MustParse("SELECT count(*) FROM title WHERE (year = 2000 OR year = 2010)")
	if _, err := m.Featurize(qOr); err != nil {
		t.Errorf("per-attribute mode rejected mixed query: %v", err)
	}
	orig, err := NewMSCNFeaturizer(schema, metas, MSCNOriginal, Options{MaxEntriesPerAttr: 8, AttrSel: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orig.Featurize(qOr); err == nil {
		t.Error("original mode accepted a disjunction")
	}
}

func TestMSCNFeaturizerRangeMode(t *testing.T) {
	schema, metas := twoTableSchema()
	m, err := NewMSCNFeaturizer(schema, metas, MSCNRange, Options{MaxEntriesPerAttr: 8, AttrSel: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.PredDim() != 4+2 {
		t.Fatalf("PredDim = %d, want 6", m.PredDim())
	}
	q := sqlparse.MustParse("SELECT count(*) FROM title WHERE year >= 1960 AND year <= 2020")
	sets, err := m.Featurize(q)
	if err != nil {
		t.Fatal(err)
	}
	vec := sets.Preds[0]
	lo, hi := vec[4], vec[5]
	if lo != 0.5 || hi != 1 {
		t.Errorf("range block = [%v, %v], want [0.5, 1]", lo, hi)
	}
	if _, err := m.Featurize(sqlparse.MustParse("SELECT count(*) FROM title WHERE (year = 2000 OR year = 2010)")); err == nil {
		t.Error("range mode accepted a disjunction")
	}
}

func TestMSCNFeaturizerPadding(t *testing.T) {
	schema, metas := twoTableSchema()
	m, err := NewMSCNFeaturizer(schema, metas, MSCNOriginal, Options{MaxEntriesPerAttr: 8, AttrSel: true})
	if err != nil {
		t.Fatal(err)
	}
	// No joins, no predicates: both sets must be padded with one zero
	// vector each (the original implementation's convention).
	q := sqlparse.MustParse("SELECT count(*) FROM title")
	sets, err := m.Featurize(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets.Joins) != 1 || len(sets.Preds) != 1 {
		t.Fatalf("padding missing: joins=%d preds=%d", len(sets.Joins), len(sets.Preds))
	}
	for _, v := range sets.Joins[0] {
		if v != 0 {
			t.Error("join padding not zero")
		}
	}
	for _, v := range sets.Preds[0] {
		if v != 0 {
			t.Error("pred padding not zero")
		}
	}
}

func TestMSCNFeaturizerErrors(t *testing.T) {
	schema, metas := twoTableSchema()
	m, err := NewMSCNFeaturizer(schema, metas, MSCNOriginal, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Featurize(sqlparse.MustParse("SELECT count(*) FROM nope")); err == nil {
		t.Error("unknown table accepted")
	}
	// A join that is not a schema foreign-key edge.
	q := &sqlparse.Query{
		Tables: []string{"title", "cast_info"},
		Joins:  []sqlparse.JoinPred{{LeftTable: "title", LeftCol: "year", RightTable: "cast_info", RightCol: "role_id"}},
	}
	if _, err := m.Featurize(q); err == nil {
		t.Error("non-FK join accepted")
	}
	if _, err := NewMSCNFeaturizer(schema, map[string]*TableMeta{}, MSCNOriginal, DefaultOptions()); err == nil {
		t.Error("missing metas accepted")
	}
}

func TestMSCNJoinOrientationSymmetric(t *testing.T) {
	schema, metas := twoTableSchema()
	m, err := NewMSCNFeaturizer(schema, metas, MSCNOriginal, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The FK is declared cast_info -> title; a query writing the join as
	// title.id = cast_info.movie_id must still resolve.
	q := sqlparse.MustParse("SELECT count(*) FROM title, cast_info WHERE title.id = cast_info.movie_id")
	sets, err := m.Featurize(q)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range sets.Joins[0] {
		sum += v
	}
	if sum != 1 {
		t.Errorf("join one-hot sums to %v, want 1", sum)
	}
}

func TestSplitWhereByTable(t *testing.T) {
	tables := []string{"cast_info", "title"}
	per := make([]sqlparse.And, 2)
	q := sqlparse.MustParse("SELECT count(*) FROM title, cast_info WHERE title.id = cast_info.movie_id AND title.year > 2000 AND cast_info.role_id = 1 AND title.year < 2015")
	if err := SplitWhereByTable(q, tables, per); err != nil {
		t.Fatal(err)
	}
	if len(per[0].Kids) != 1 || len(per[1].Kids) != 2 {
		t.Errorf("cast_info conjuncts = %v, title conjuncts = %v", per[0].Kids, per[1].Kids)
	}
	// Single-table queries allow unqualified attributes; the buffers are
	// reused, and a table without conjuncts gets none.
	q2 := sqlparse.MustParse("SELECT count(*) FROM title WHERE year > 2000")
	if err := SplitWhereByTable(q2, tables, per); err != nil {
		t.Fatal(err)
	}
	if len(per[0].Kids) != 0 || len(per[1].Kids) != 1 {
		t.Errorf("unqualified attribute not routed to the single table: %v", per)
	}
	// Multi-table queries do not, and a conjunct may not span tables.
	year := &sqlparse.Pred{Attr: "title.year", Op: sqlparse.OpGt, Val: 2000}
	for _, where := range []sqlparse.Expr{
		&sqlparse.Pred{Attr: "year", Op: sqlparse.OpGt, Val: 2000},
		sqlparse.NewOr(year, &sqlparse.Pred{Attr: "cast_info.role_id", Op: sqlparse.OpEq, Val: 1}),
	} {
		bad := &sqlparse.Query{Tables: []string{"title", "cast_info"}, Where: where}
		if err := SplitWhereByTable(bad, tables, per); err == nil {
			t.Errorf("%s: split accepted", where)
		}
	}
}
