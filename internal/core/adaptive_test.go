package core

import (
	"math/rand"
	"testing"

	"qfe/internal/table"
)

// adaptiveTestTable builds a table with one wide, one medium, and one binary
// attribute so the budget split is observable.
func adaptiveTestTable() *table.Table {
	rng := rand.New(rand.NewSource(1))
	n := 2000
	wide := make([]int64, n)
	medium := make([]int64, n)
	binary := make([]int64, n)
	for i := 0; i < n; i++ {
		wide[i] = int64(rng.Intn(5000))
		medium[i] = int64(rng.Intn(40))
		binary[i] = int64(rng.Intn(2))
	}
	t := table.New("t")
	t.MustAddColumn(table.NewColumn("wide", wide))
	t.MustAddColumn(table.NewColumn("medium", medium))
	t.MustAddColumn(table.NewColumn("bin", binary))
	return t
}

func TestAdaptiveMetaAllocatesByDistinct(t *testing.T) {
	tbl := adaptiveTestTable()
	m := NewTableMetaAdaptive(tbl, 96, 2)
	wide, _ := m.Attr("wide")
	medium, _ := m.Attr("medium")
	bin, _ := m.Attr("bin")

	if wide.NEntries <= medium.NEntries {
		t.Errorf("wide (%d entries) should get more than medium (%d)", wide.NEntries, medium.NEntries)
	}
	// Binary attributes are capped at their domain size.
	if bin.NEntries != 2 {
		t.Errorf("bin.NEntries = %d, want 2", bin.NEntries)
	}
	// Every attribute respects the minimum and its domain cap.
	for _, a := range m.Attrs {
		if a.NEntries < 2 && a.DomainSize() >= 2 {
			t.Errorf("%s got %d entries, below the minimum", a.Name, a.NEntries)
		}
		if int64(a.NEntries) > a.DomainSize() {
			t.Errorf("%s got %d entries for domain %d", a.Name, a.NEntries, a.DomainSize())
		}
	}
}

func TestAdaptiveMetaUsableByFeaturizers(t *testing.T) {
	tbl := adaptiveTestTable()
	m := NewTableMetaAdaptive(tbl, 64, 2)
	opts := Options{MaxEntriesPerAttr: 64, AttrSel: true}
	f := NewConjunctive(m, opts)
	vec, err := featurize(f, wherePart(t, "wide >= 100 AND wide <= 2000 AND bin = 1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != f.Dim() {
		t.Fatalf("vector length %d != Dim %d", len(vec), f.Dim())
	}
	// The decoded structure must still bracket the truth.
	decoded, err := DecodePartitioned(m, opts, vec)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := CountDecodedBounds(tbl, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if lo > hi {
		t.Fatalf("bounds inverted: [%d, %d]", lo, hi)
	}
}

func TestAdaptiveMetaMinimumFloor(t *testing.T) {
	tbl := adaptiveTestTable()
	// A budget far below the per-attribute minimum must still floor at
	// minEntries (clamped by domain size).
	m := NewTableMetaAdaptive(tbl, 3, 4)
	for _, a := range m.Attrs {
		want := int64(4)
		if d := a.DomainSize(); d < want {
			want = d
		}
		if int64(a.NEntries) != want {
			t.Errorf("%s got %d entries, want %d", a.Name, a.NEntries, want)
		}
	}
}
