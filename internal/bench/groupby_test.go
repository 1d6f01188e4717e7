package bench

import (
	"fmt"
	"slices"
	"testing"

	"qfe/internal/core"
	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// ExampleGroupByVector shows the Section 6 GROUP BY encoding: one bit per
// attribute, set for each grouping attribute.
func ExampleGroupByVector() {
	meta := core.NewTableMetaFromAttrs("t", []core.AttrMeta{
		{Name: "A1", Min: 0, Max: 9}, {Name: "A2", Min: 0, Max: 9},
		{Name: "A3", Min: 0, Max: 9}, {Name: "A4", Min: 0, Max: 9},
		{Name: "A5", Min: 0, Max: 9},
	}, 4)
	vec, _ := GroupByVector(meta, []string{"A2", "A4"})
	fmt.Println(vec)
	// Output:
	// [0 1 0 1 0]
}

func TestGroupByVector(t *testing.T) {
	// The Section 6 example: GROUP BY A2, A4 over five attributes -> 01010.
	meta := core.NewTableMetaFromAttrs("t", []core.AttrMeta{
		{Name: "A1", Min: 0, Max: 9}, {Name: "A2", Min: 0, Max: 9},
		{Name: "A3", Min: 0, Max: 9}, {Name: "A4", Min: 0, Max: 9},
		{Name: "A5", Min: 0, Max: 9},
	}, 4)
	vec, err := GroupByVector(meta, []string{"A2", "A4"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 1, 0, 1, 0}; !slices.Equal(vec, want) {
		t.Fatalf("GroupByVector = %v, want %v (paper Section 6)", vec, want)
	}
	// A qualified name is its column's.
	if vec, err := GroupByVector(meta, []string{"t.A5"}); err != nil || !slices.Equal(vec, []float64{0, 0, 0, 0, 1}) {
		t.Fatalf("GroupByVector(t.A5) = %v, %v", vec, err)
	}
	if _, err := GroupByVector(meta, []string{"nosuch"}); err == nil {
		t.Error("unknown grouping attribute accepted")
	}
}

func TestWithGroupBy(t *testing.T) {
	// The paper's running example's domains (Sections 3.2 and 3.3).
	tbl := table.New("t")
	tbl.MustAddColumn(table.NewColumn("A", []int64{-9, 50}))
	tbl.MustAddColumn(table.NewColumn("B", []int64{0, 115}))
	tbl.MustAddColumn(table.NewColumn("C", []int64{1, 2}))
	db := table.NewDB()
	db.MustAdd(tbl)
	meta := core.NewTableMeta(tbl, 12)
	base := core.NewConjunctive(meta, core.Options{MaxEntriesPerAttr: 12, AttrSel: false})
	w := &WithGroupBy{Base: base, Meta: meta}
	q := sqlparse.MustParse("SELECT count(*) FROM t WHERE A < 7")
	if err := exec.Bind(q, db); err != nil {
		t.Fatal(err)
	}
	want, err := base.Featurize(q.Where)
	if err != nil {
		t.Fatal(err)
	}
	// The base encoding, then the grouping block: the trailing three entries.
	for _, tc := range []struct {
		groupBy []string
		block   []float64
	}{{[]string{"C"}, []float64{0, 0, 1}}, {nil, []float64{0, 0, 0}}} {
		vec, err := w.FeaturizeQuery(q.Where, tc.groupBy)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(vec, append(slices.Clone(want), tc.block...)) {
			t.Errorf("GROUP BY %v: vector %v, want %v then %v", tc.groupBy, vec, want, tc.block)
		}
	}
}
