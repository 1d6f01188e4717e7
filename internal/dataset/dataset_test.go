package dataset

import (
	"fmt"
	"math"
	"testing"

	"qfe/internal/catalog"
)

func TestForestShapeAndDeterminism(t *testing.T) {
	cfg := ForestConfig{Rows: 2000, QuantAttrs: 8, BinaryAttrs: 4, Seed: 1}
	a, err := Forest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != 2000 || a.NumCols() != 12 {
		t.Fatalf("shape = (%d, %d), want (2000, 12)", a.NumRows(), a.NumCols())
	}
	for i := 1; i <= 12; i++ {
		if a.Column(fmt.Sprintf("A%d", i)) == nil {
			t.Fatalf("missing column A%d", i)
		}
	}
	b, err := Forest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < a.NumCols(); c++ {
		for r := 0; r < 100; r++ {
			if a.Columns()[c].Vals[r] != b.Columns()[c].Vals[r] {
				t.Fatal("generation not deterministic under same seed")
			}
		}
	}
}

func TestForestDomains(t *testing.T) {
	tbl, err := Forest(ForestConfig{Rows: 5000, QuantAttrs: 10, BinaryAttrs: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Elevation-like A1 in [1200, 3900].
	a1 := tbl.Column("A1")
	if a1.Min() < 1200 || a1.Max() > 3900 {
		t.Errorf("A1 domain [%d, %d] outside [1200, 3900]", a1.Min(), a1.Max())
	}
	// Aspect-like A2 in [0, 359].
	a2 := tbl.Column("A2")
	if a2.Min() < 0 || a2.Max() > 359 {
		t.Errorf("A2 domain [%d, %d] outside [0, 359]", a2.Min(), a2.Max())
	}
	// Binary attributes really are binary.
	for i := 11; i <= 16; i++ {
		col := tbl.Column(fmt.Sprintf("A%d", i))
		if col.Min() < 0 || col.Max() > 1 {
			t.Errorf("A%d not binary: [%d, %d]", i, col.Min(), col.Max())
		}
	}
}

// TestForestCorrelation: A3 (slope) must be positively correlated with A1
// (elevation); the correlation is what defeats the independence baseline.
func TestForestCorrelation(t *testing.T) {
	tbl, err := Forest(ForestConfig{Rows: 10000, QuantAttrs: 6, BinaryAttrs: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r := pearson(tbl.Column("A1").Vals, tbl.Column("A3").Vals); r < 0.2 {
		t.Errorf("corr(A1, A3) = %v, want > 0.2", r)
	}
}

func pearson(a, b []int64) float64 {
	n := float64(len(a))
	var sa, sb float64
	for i := range a {
		sa += float64(a[i])
		sb += float64(b[i])
	}
	ma, mb := sa/n, sb/n
	var cov, va, vb float64
	for i := range a {
		da, db := float64(a[i])-ma, float64(b[i])-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	return cov / math.Sqrt(va*vb)
}

func TestForestConfigValidation(t *testing.T) {
	if _, err := Forest(ForestConfig{Rows: 0, QuantAttrs: 5}); err == nil {
		t.Error("Rows=0 accepted")
	}
	if _, err := Forest(ForestConfig{Rows: 10, QuantAttrs: 1}); err == nil {
		t.Error("QuantAttrs=1 accepted")
	}
	if _, err := Forest(ForestConfig{Rows: 10, QuantAttrs: 5, BinaryAttrs: -1}); err == nil {
		t.Error("negative BinaryAttrs accepted")
	}
}

func TestIMDBSchemaShape(t *testing.T) {
	s := IMDBSchema()
	if len(s.Tables) != 6 {
		t.Fatalf("schema has %d tables, want 6", len(s.Tables))
	}
	if len(s.FKs) != 5 {
		t.Fatalf("schema has %d FKs, want 5", len(s.FKs))
	}
	for _, fk := range s.FKs {
		if fk.ToTable != "title" || fk.ToCol != "id" || fk.FromCol != "movie_id" {
			t.Errorf("unexpected FK %s", fk)
		}
	}
	// All 2^6-1 = 63 subsets minus the disconnected ones; the star means a
	// connected subset either is a single table or contains title.
	subs := s.ConnectedSubSchemas(0)
	// In a star, a connected subset is either a single table or contains
	// the hub plus a nonempty satellite subset: 6 + (2^5 - 1) = 37.
	want := 6 + (1<<5 - 1)
	if len(subs) != want {
		t.Errorf("connected sub-schemas = %d, want %d", len(subs), want)
	}
}

func TestIMDBGeneration(t *testing.T) {
	db, err := IMDB(IMDBConfig{Titles: 500, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	title := db.Table("title")
	if title == nil || title.NumRows() != 500 {
		t.Fatal("title table wrong")
	}
	// Keys are dense 0..n-1.
	if title.Column("id").Min() != 0 || title.Column("id").Max() != 499 {
		t.Error("title.id not dense")
	}
	// Production years in [1880, 2015], recent-skewed: median above 1950.
	py := title.Column("production_year")
	if py.Min() < 1880 || py.Max() > 2015 {
		t.Errorf("production_year domain [%d, %d]", py.Min(), py.Max())
	}
	var above int
	for _, y := range py.Vals {
		if y > 1950 {
			above++
		}
	}
	if above < 250 {
		t.Errorf("only %d/500 years after 1950; want recent skew", above)
	}
	// Satellites reference valid titles and have roughly the configured
	// fan-out.
	ci := db.Table("cast_info")
	if ci.NumRows() != 3000 {
		t.Errorf("cast_info rows = %d, want 3000", ci.NumRows())
	}
	for _, mid := range ci.Column("movie_id").Vals[:200] {
		if mid < 0 || mid >= 500 {
			t.Fatalf("cast_info.movie_id %d out of range", mid)
		}
	}
	// Zipf skew: the most popular title should attract far more cast rows
	// than the median title.
	counts := map[int64]int{}
	for _, mid := range ci.Column("movie_id").Vals {
		counts[mid]++
	}
	maxCnt := 0
	for _, c := range counts {
		if c > maxCnt {
			maxCnt = c
		}
	}
	if maxCnt < 20 {
		t.Errorf("max fan-out %d; want heavy Zipf skew", maxCnt)
	}
}

func TestIMDBConfigValidation(t *testing.T) {
	if _, err := IMDB(IMDBConfig{Titles: 5}); err == nil {
		t.Error("tiny Titles accepted")
	}
}

func TestIMDBJoinEdgesResolvable(t *testing.T) {
	s := IMDBSchema()
	edges, err := s.JoinEdges([]string{"title", "cast_info", "movie_keyword"})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 2 {
		t.Errorf("got %d edges, want 2", len(edges))
	}
	if _, err := s.JoinEdges([]string{"cast_info", "movie_keyword"}); err == nil {
		t.Error("satellite-only pair should be disconnected")
	}
	var _ = catalog.SubSchemaKey([]string{"b", "a"})
}
