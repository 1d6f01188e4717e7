package mscn

import (
	"math"
	"testing"

	"qfe/internal/catalog"
	"qfe/internal/core"
	"qfe/internal/sqlparse"
)

// twoTableSchema builds a hub+satellite schema for the encoder tests.
func twoTableSchema() (*catalog.Schema, map[string]*core.TableMeta) {
	schema := &catalog.Schema{
		Tables: []string{"title", "cast_info"},
		FKs: []catalog.ForeignKey{
			{FromTable: "cast_info", FromCol: "movie_id", ToTable: "title", ToCol: "id"},
		},
	}
	metas := map[string]*core.TableMeta{
		"title": core.NewTableMetaFromAttrs("title", []core.AttrMeta{
			{Name: "id", Min: 0, Max: 99},
			{Name: "year", Min: 1900, Max: 2020},
		}, 8),
		"cast_info": core.NewTableMetaFromAttrs("cast_info", []core.AttrMeta{
			{Name: "movie_id", Min: 0, Max: 99},
			{Name: "role_id", Min: 1, Max: 11},
		}, 8),
	}
	return schema, metas
}

func TestEncoderOriginal(t *testing.T) {
	schema, metas := twoTableSchema()
	m, err := NewEncoder(schema, metas, Original, core.Options{MaxEntriesPerAttr: 8, AttrSel: true})
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
	sets, err := m.Encode(q)
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

func TestEncoderPerAttribute(t *testing.T) {
	schema, metas := twoTableSchema()
	m, err := NewEncoder(schema, metas, PerAttribute, core.Options{MaxEntriesPerAttr: 8, AttrSel: true})
	if err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParse("SELECT count(*) FROM title, cast_info WHERE title.id = cast_info.movie_id AND title.year > 2000 AND title.year < 2010")
	sets, err := m.Encode(q)
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
	if _, err := m.Encode(qOr); err != nil {
		t.Errorf("per-attribute mode rejected mixed query: %v", err)
	}
	orig, err := NewEncoder(schema, metas, Original, core.Options{MaxEntriesPerAttr: 8, AttrSel: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orig.Encode(qOr); err == nil {
		t.Error("original mode accepted a disjunction")
	}
}

func TestEncoderRangeMode(t *testing.T) {
	schema, metas := twoTableSchema()
	m, err := NewEncoder(schema, metas, Range, core.Options{MaxEntriesPerAttr: 8, AttrSel: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.PredDim() != 4+2 {
		t.Fatalf("PredDim = %d, want 6", m.PredDim())
	}
	q := sqlparse.MustParse("SELECT count(*) FROM title WHERE year >= 1960 AND year <= 2020")
	sets, err := m.Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	vec := sets.Preds[0]
	lo, hi := vec[4], vec[5]
	if lo != 0.5 || hi != 1 {
		t.Errorf("range block = [%v, %v], want [0.5, 1]", lo, hi)
	}
	if _, err := m.Encode(sqlparse.MustParse("SELECT count(*) FROM title WHERE (year = 2000 OR year = 2010)")); err == nil {
		t.Error("range mode accepted a disjunction")
	}
}

func TestEncoderPadding(t *testing.T) {
	schema, metas := twoTableSchema()
	m, err := NewEncoder(schema, metas, Original, core.Options{MaxEntriesPerAttr: 8, AttrSel: true})
	if err != nil {
		t.Fatal(err)
	}
	// No joins, no predicates: both sets must be padded with one zero
	// vector each (the original implementation's convention).
	q := sqlparse.MustParse("SELECT count(*) FROM title")
	sets, err := m.Encode(q)
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

func TestEncoderErrors(t *testing.T) {
	schema, metas := twoTableSchema()
	m, err := NewEncoder(schema, metas, Original, core.Options{MaxEntriesPerAttr: 64, AttrSel: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Encode(sqlparse.MustParse("SELECT count(*) FROM nope")); err == nil {
		t.Error("unknown table accepted")
	}
	// A join that is not a schema foreign-key edge.
	q := &sqlparse.Query{
		Tables: []string{"title", "cast_info"},
		Joins:  []sqlparse.JoinPred{{LeftTable: "title", LeftCol: "year", RightTable: "cast_info", RightCol: "role_id"}},
	}
	if _, err := m.Encode(q); err == nil {
		t.Error("non-FK join accepted")
	}
	if _, err := NewEncoder(schema, map[string]*core.TableMeta{}, Original, core.Options{MaxEntriesPerAttr: 64, AttrSel: true}); err == nil {
		t.Error("missing metas accepted")
	}
}

func TestEncoderJoinOrientationSymmetric(t *testing.T) {
	schema, metas := twoTableSchema()
	m, err := NewEncoder(schema, metas, Original, core.Options{MaxEntriesPerAttr: 64, AttrSel: true})
	if err != nil {
		t.Fatal(err)
	}
	// The FK is declared cast_info -> title; a query writing the join as
	// title.id = cast_info.movie_id must still resolve.
	q := sqlparse.MustParse("SELECT count(*) FROM title, cast_info WHERE title.id = cast_info.movie_id")
	sets, err := m.Encode(q)
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

// TestEncoderGroupsBothSpellingsOfOneAttribute: the per-attribute modes group
// a query's predicates by qualified attribute, so spelling an attribute bare
// or qualified gives the same predicate set bit for bit, and an OR over both
// spellings is one attribute's compound, not a conjunct that mixes two.
func TestEncoderGroupsBothSpellingsOfOneAttribute(t *testing.T) {
	schema, metas := twoTableSchema()
	for _, mode := range []Mode{PerAttribute, Range} {
		e, err := NewEncoder(schema, metas, mode, core.Options{MaxEntriesPerAttr: 8, AttrSel: true})
		if err != nil {
			t.Fatal(err)
		}
		pairs := [][2]string{
			{"year >= 1950 AND year <= 1990", "year >= 1950 AND title.year <= 1990"},
			{"year > 1950 AND id < 40 AND year <> 1970", "title.year > 1950 AND id < 40 AND year <> 1970"},
		}
		if mode == PerAttribute {
			pairs = append(pairs, [2]string{"(year < 1950 OR year > 1990) AND id > 3", "(year < 1950 OR title.year > 1990) AND title.id > 3"})
		}
		for _, pair := range pairs {
			var sets [2]*Sets
			for i, where := range pair {
				if sets[i], err = e.Encode(sqlparse.MustParse("SELECT count(*) FROM title WHERE " + where)); err != nil {
					t.Fatalf("mode %d: %s: %v", mode, where, err)
				}
			}
			if !sameVectors(sets[0].Preds, sets[1].Preds) {
				t.Errorf("mode %d: %q encodes %v, %q %v", mode, pair[0], sets[0].Preds, pair[1], sets[1].Preds)
			}
		}
	}
}

func sameVectors(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}
