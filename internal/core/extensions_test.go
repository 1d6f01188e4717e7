package core

import (
	"testing"

	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

func TestGroupByVector(t *testing.T) {
	meta := paperMeta()
	vec, err := GroupByVector(meta, []string{"B"})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 0}
	for i := range want {
		if vec[i] != want[i] {
			t.Fatalf("GroupByVector = %v, want %v", vec, want)
		}
	}
	// The Section 6 example: GROUP BY A2, A4 over five attributes -> 01010.
	meta5 := NewTableMetaFromAttrs("t", []AttrMeta{
		{Name: "A1", Min: 0, Max: 9}, {Name: "A2", Min: 0, Max: 9},
		{Name: "A3", Min: 0, Max: 9}, {Name: "A4", Min: 0, Max: 9},
		{Name: "A5", Min: 0, Max: 9},
	}, 4)
	vec5, err := GroupByVector(meta5, []string{"A2", "A4"})
	if err != nil {
		t.Fatal(err)
	}
	want5 := []float64{0, 1, 0, 1, 0}
	for i := range want5 {
		if vec5[i] != want5[i] {
			t.Fatalf("GroupByVector = %v, want %v (paper Section 6)", vec5, want5)
		}
	}
	if _, err := GroupByVector(meta, []string{"nosuch"}); err == nil {
		t.Error("unknown grouping attribute accepted")
	}
}

func TestWithGroupBy(t *testing.T) {
	meta := paperMeta()
	base := NewConjunctive(meta, Options{MaxEntriesPerAttr: 12, AttrSel: false})
	w := &WithGroupBy{Base: base, Meta: meta}
	if w.Dim() != base.Dim()+3 {
		t.Fatalf("Dim = %d, want %d", w.Dim(), base.Dim()+3)
	}
	if w.Name() != "conjunctive+groupby" {
		t.Errorf("Name = %q", w.Name())
	}
	expr := wherePart(t, "A < 7")
	vec, err := w.FeaturizeQuery(stampByName(meta, expr), []string{"C"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != w.Dim() {
		t.Fatalf("vector length %d, want %d", len(vec), w.Dim())
	}
	// Grouping block is the trailing three entries.
	gb := vec[len(vec)-3:]
	if gb[0] != 0 || gb[1] != 0 || gb[2] != 1 {
		t.Errorf("grouping block = %v, want [0 0 1]", gb)
	}
	// Featurize (no grouping) must leave the block zero.
	vec2, err := featurize(w, expr)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vec2[len(vec2)-3:] {
		if v != 0 {
			t.Error("grouping block not zero without GROUP BY")
		}
	}
}

func TestPrefixPreds(t *testing.T) {
	// Dictionary-order prefix predicates (Section 6, string predicates):
	// attr LIKE 'ap%' must select exactly the code range of apple..apricot.
	col := table.NewStringColumn("s", []string{
		"apple", "apricot", "banana", "cherry", "apex", "apple",
	})
	tbl := table.New("t")
	tbl.MustAddColumn(col)

	count := func(expr sqlparse.Expr) int64 {
		bm, err := exec.EvalExpr(tbl, expr)
		if err != nil {
			t.Fatal(err)
		}
		return int64(bm.Count())
	}

	// 'ap%' matches apex, apple (x2), apricot = 4 rows.
	if got := count(PrefixPreds("s", "ap", col.Dict)); got != 4 {
		t.Errorf("LIKE 'ap%%' matched %d rows, want 4", got)
	}
	// 'appl%' matches the two apples.
	if got := count(PrefixPreds("s", "appl", col.Dict)); got != 2 {
		t.Errorf("LIKE 'appl%%' matched %d rows, want 2", got)
	}
	// 'z%' matches nothing and must be an unsatisfiable predicate.
	if got := count(PrefixPreds("s", "z", col.Dict)); got != 0 {
		t.Errorf("LIKE 'z%%' matched %d rows, want 0", got)
	}
	// The empty prefix matches everything.
	if got := count(PrefixPreds("s", "", col.Dict)); got != 6 {
		t.Errorf("LIKE '%%' matched %d rows, want 6", got)
	}
}

// TestPrefixPredsFeaturizable: the rewritten prefix predicates flow through
// Universal Conjunction Encoding naturally — the Section 6 claim.
func TestPrefixPredsFeaturizable(t *testing.T) {
	col := table.NewStringColumn("s", []string{"apple", "apricot", "banana", "cherry"})
	tbl := table.New("t")
	tbl.MustAddColumn(col)
	meta := NewTableMeta(tbl, 26)
	f := NewConjunctive(meta, Options{MaxEntriesPerAttr: 26, AttrSel: true})
	expr := PrefixPreds("s", "ap", col.Dict)
	vec, err := featurize(f, expr)
	if err != nil {
		t.Fatal(err)
	}
	// Domain is 4 codes; apple(0), apricot(1) qualify; banana(2), cherry(3)
	// do not.
	want := []float64{1, 1, 0, 0}
	for i := range want {
		if vec[i] != want[i] {
			t.Fatalf("prefix featurization = %v, want %v...", vec[:4], want)
		}
	}
	if sel := vec[4]; sel != 0.5 {
		t.Errorf("prefix attrSel = %v, want 0.5", sel)
	}
}
