package core

import (
	"slices"
	"testing"

	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// paperMeta reproduces the running example of Sections 3.2 and 3.3: numeric
// attributes A, B, C with min(A)=-9, max(A)=50, min(B)=0, max(B)=115, and C
// containing only values in {1, 2}; n=12 maximum per-attribute entries.
func paperMeta() *TableMeta {
	return NewTableMetaFromAttrs("t", []AttrMeta{
		{Name: "A", Min: -9, Max: 50},
		{Name: "B", Min: 0, Max: 115},
		{Name: "C", Min: 1, Max: 2},
	}, 12)
}

func wherePart(t *testing.T, src string) sqlparse.Expr {
	t.Helper()
	q, err := sqlparse.Parse("SELECT count(*) FROM t WHERE " + src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q.Where
}

func vecEq(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d\n got  %v\n want %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %v, want %v\n got  %v\n want %v", label, i, got[i], want[i], got, want)
		}
	}
}

const h = 0.5 // ½ entry

func TestAttrMetaBuckets(t *testing.T) {
	a := AttrMeta{Name: "A", Min: -9, Max: 50, NEntries: 12}
	// The paper's example: 7 maps to the fourth entry (index 3), since
	// floor((7-(-9)) / (50-(-9)+1) * 12) = 3.
	if got := a.BucketOf(7); got != 3 {
		t.Errorf("BucketOf(7) = %d, want 3", got)
	}
	if got := a.BucketOf(-9); got != 0 {
		t.Errorf("BucketOf(min) = %d, want 0", got)
	}
	if got := a.BucketOf(50); got != 11 {
		t.Errorf("BucketOf(max) = %d, want 11", got)
	}
	// BucketRange is the inverse: every value's bucket must contain it.
	for v := a.Min; v <= a.Max; v++ {
		idx := a.BucketOf(v)
		lo, hi := a.BucketRange(idx)
		if v < lo || v > hi {
			t.Fatalf("value %d not in BucketRange(%d) = [%d, %d]", v, idx, lo, hi)
		}
	}
	// Buckets must partition the domain: consecutive, no gaps or overlaps.
	prevHi := a.Min - 1
	for i := 0; i < a.NEntries; i++ {
		lo, hi := a.BucketRange(i)
		if lo != prevHi+1 {
			t.Fatalf("bucket %d starts at %d, want %d", i, lo, prevHi+1)
		}
		if hi < lo {
			t.Fatalf("bucket %d is empty: [%d, %d]", i, lo, hi)
		}
		prevHi = hi
	}
	if prevHi != a.Max {
		t.Fatalf("buckets end at %d, want %d", prevHi, a.Max)
	}
}

func TestAttrMetaExactMode(t *testing.T) {
	c := AttrMeta{Name: "C", Min: 1, Max: 2, NEntries: 2}
	if !c.Exact() {
		t.Error("two-value domain with two entries must be exact")
	}
	a := AttrMeta{Name: "A", Min: -9, Max: 50, NEntries: 12}
	if a.Exact() {
		t.Error("60-value domain with 12 entries must not be exact")
	}
}

func TestNewTableMetaCapsEntries(t *testing.T) {
	tbl := table.New("t")
	tbl.MustAddColumn(table.NewColumn("big", []int64{0, 1000, 7}))
	tbl.MustAddColumn(table.NewColumn("small", []int64{1, 2, 1}))
	m := NewTableMeta(tbl, 64)
	big, _ := m.Attr("big")
	small, _ := m.Attr("small")
	if big.NEntries != 64 {
		t.Errorf("big.NEntries = %d, want 64", big.NEntries)
	}
	// n_A = min(n, max-min+1): the small domain gets one entry per value.
	if small.NEntries != 2 {
		t.Errorf("small.NEntries = %d, want 2", small.NEntries)
	}
}

func TestQualifiedAttrLookup(t *testing.T) {
	m := paperMeta()
	if _, ok := m.Attr("t.A"); !ok {
		t.Error("qualified lookup t.A failed")
	}
	if _, ok := m.Attr("other.A"); ok {
		t.Error("lookup with wrong qualifier should fail")
	}
	if i := m.AttrIndex("t.B"); i != 1 {
		t.Errorf("AttrIndex(t.B) = %d, want 1", i)
	}
}

// TestConjunctivePaperExample reproduces the worked example of Section 3.2:
// A < 7 AND B >= 30 AND B <= 100 AND B <> 66 over the paper's table with
// n=12. Expected partition entries (selectivity estimates checked
// separately, since the paper's gray numbers follow a different rounding):
//
//	A: 1 1 1 ½ 0 0 0 0 0 0 0 0
//	B: 0 0 0 ½ 1 1 ½ 1 1 1 ½ 0
//	C: 1 1   (no predicate, two-value domain)
func TestConjunctivePaperExample(t *testing.T) {
	meta := paperMeta()
	f := NewConjunctive(meta, Options{MaxEntriesPerAttr: 12, AttrSel: false})
	expr := wherePart(t, "A < 7 AND B >= 30 AND B <= 100 AND B <> 66")
	got, err := featurize(f, expr)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{
		1, 1, 1, h, 0, 0, 0, 0, 0, 0, 0, 0, // A < 7
		0, 0, 0, h, 1, 1, h, 1, 1, 1, h, 0, // 30 <= B <= 100 AND B <> 66
		1, 1, // C: no predicate
	}
	vecEq(t, got, want, "Section 3.2 example")
}

func TestConjunctiveAttrSelAppended(t *testing.T) {
	meta := paperMeta()
	f := NewConjunctive(meta, Options{MaxEntriesPerAttr: 12, AttrSel: true})
	expr := wherePart(t, "A < 7 AND B >= 30 AND B <= 100 AND B <> 66")
	got, err := featurize(f, expr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 12+1+12+1+2+1 {
		t.Fatalf("dim with attrSel = %d, want 29", len(got))
	}
	// A < 7: qualifying domain is [-9, 6], 16 of 60 values.
	if selA := got[12]; selA != 16.0/60.0 {
		t.Errorf("attrSel(A) = %v, want %v", selA, 16.0/60.0)
	}
	// B in [30, 100] minus one excluded value: 70 of 116 values.
	if selB := got[25]; selB != 70.0/116.0 {
		t.Errorf("attrSel(B) = %v, want %v", selB, 70.0/116.0)
	}
	// C unconstrained.
	if selC := got[28]; selC != 1 {
		t.Errorf("attrSel(C) = %v, want 1", selC)
	}
}

// TestComplexPaperExample reproduces the worked example of Section 3.3:
// (A > -2 AND A <= 30 AND A != 7 OR A >= 42) AND B >= 39 with n=12.
//
// One deliberate deviation from the paper's figures: this implementation
// resolves partition entries whose boundary aligns with a literal to 0/1
// instead of ½ (the paper applies that refinement only to small domains).
// A <= 30 ends exactly at bucket 7's upper edge, so entry 7 is 1 here where
// the paper prints ½.
func TestComplexPaperExample(t *testing.T) {
	meta := paperMeta()
	f := NewComplex(meta, Options{MaxEntriesPerAttr: 12, AttrSel: false})
	expr := wherePart(t, "(A > -2 AND A <= 30 AND A <> 7 OR A >= 42) AND B >= 40")
	got, err := featurize(f, expr)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{
		0, h, 1, h, 1, 1, 1, 1, 0, 0, h, 1, // compound on A (entry 7: see doc)
		0, 0, 0, 0, h, 1, 1, 1, 1, 1, 1, 1, // B >= 39
		1, 1, // C: no predicate
	}
	vecEq(t, got, want, "Section 3.3 example")
}

// TestComplexBranchVectors checks the per-disjunct vectors of the
// Section 3.3 example before merging.
func TestComplexBranchVectors(t *testing.T) {
	meta := paperMeta()
	a, _ := meta.Attr("A")

	branch1 := sqlparse.CollectPreds(wherePart(t, "A > -2 AND A <= 30 AND A <> 7"))
	v1, _, err := FeaturizeAttrConjunction(a, branch1)
	if err != nil {
		t.Fatal(err)
	}
	vecEq(t, v1, []float64{0, h, 1, h, 1, 1, 1, 1, 0, 0, 0, 0}, "branch -2 < A <= 30, A <> 7")

	branch2 := sqlparse.CollectPreds(wherePart(t, "A >= 42"))
	v2, _, err := FeaturizeAttrConjunction(a, branch2)
	if err != nil {
		t.Fatal(err)
	}
	vecEq(t, v2, []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, h, 1}, "branch A >= 42")
}

func TestComplexEqualsConjunctiveOnConjunctiveInput(t *testing.T) {
	// On purely conjunctive queries, Limited Disjunction Encoding must
	// produce the identical vector to Universal Conjunction Encoding — the
	// paper relies on this for JOB-light (Table 1).
	meta := paperMeta()
	opts := Options{MaxEntriesPerAttr: 12, AttrSel: true}
	conj := NewConjunctive(meta, opts)
	comp := NewComplex(meta, opts)
	for _, src := range []string{
		"A < 7 AND B >= 30 AND B <= 100 AND B <> 66",
		"A = 5",
		"C = 2 AND A >= 0",
		"B > 10 AND B < 90 AND B <> 50 AND B <> 51",
	} {
		expr := wherePart(t, src)
		v1, err := featurize(conj, expr)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := featurize(comp, expr)
		if err != nil {
			t.Fatal(err)
		}
		vecEq(t, v2, v1, src)
	}
}

func TestConjunctiveNoPredicatesIsAllOnes(t *testing.T) {
	meta := paperMeta()
	f := NewConjunctive(meta, Options{MaxEntriesPerAttr: 12, AttrSel: true})
	got, err := featurize(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 1 {
			t.Fatalf("entry %d = %v, want 1 (no-predicate encoding)", i, v)
		}
	}
}

func TestConjunctiveSmallDomainBinaryOnly(t *testing.T) {
	// For C with domain {1, 2} and exact partitioning, entries must be 0/1
	// only — the small-domain refinement at the end of Section 3.2.
	meta := paperMeta()
	f := NewConjunctive(meta, Options{MaxEntriesPerAttr: 12, AttrSel: false})
	for _, tc := range []struct {
		src   string
		wantC []float64
	}{
		{"C = 1", []float64{1, 0}},
		{"C = 2", []float64{0, 1}},
		{"C <> 1", []float64{0, 1}},
		{"C <= 1", []float64{1, 0}},
		{"C > 1", []float64{0, 1}},
	} {
		got, err := featurize(f, wherePart(t, tc.src))
		if err != nil {
			t.Fatal(err)
		}
		vecEq(t, got[24:26], tc.wantC, tc.src)
	}
}

func TestConjunctiveEqualityCoarse(t *testing.T) {
	// A = 7 in a coarse partition: only bucket 3 survives, as ½ (7 does not
	// fill its bucket [6, 10]).
	meta := paperMeta()
	f := NewConjunctive(meta, Options{MaxEntriesPerAttr: 12, AttrSel: true})
	got, err := featurize(f, wherePart(t, "A = 7"))
	if err != nil {
		t.Fatal(err)
	}
	vecEq(t, got[0:12], []float64{0, 0, 0, h, 0, 0, 0, 0, 0, 0, 0, 0}, "A = 7 partitions")
	if sel := got[12]; sel != 1.0/60.0 {
		t.Errorf("attrSel(A = 7) = %v, want %v", sel, 1.0/60.0)
	}
}

func TestConjunctiveContradiction(t *testing.T) {
	// A contradictory conjunction zeroes the attribute vector and its
	// selectivity.
	meta := paperMeta()
	f := NewConjunctive(meta, Options{MaxEntriesPerAttr: 12, AttrSel: true})
	got, err := featurize(f, wherePart(t, "A < 0 AND A > 10"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if got[i] != 0 {
			t.Fatalf("entry %d = %v, want 0 for contradiction", i, got[i])
		}
	}
	if got[12] != 0 {
		t.Errorf("attrSel = %v, want 0 for contradiction", got[12])
	}
}

func TestConjunctiveOutOfDomainLiterals(t *testing.T) {
	meta := paperMeta()
	f := NewConjunctive(meta, Options{MaxEntriesPerAttr: 12, AttrSel: true})

	// A > 100 (beyond max): nothing qualifies.
	got, err := featurize(f, wherePart(t, "A > 100"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 13; i++ {
		if got[i] != 0 {
			t.Fatalf("A > 100: entry %d = %v, want 0", i, got[i])
		}
	}

	// A < -100 (below min): nothing qualifies.
	got, err = featurize(f, wherePart(t, "A < -100"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if got[i] != 0 {
			t.Fatalf("A < -100: entry %d = %v, want 0", i, got[i])
		}
	}

	// A > -100 (below min): everything qualifies.
	got, err = featurize(f, wherePart(t, "A > -100"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 13; i++ {
		if got[i] != 1 {
			t.Fatalf("A > -100: entry %d = %v, want 1", i, got[i])
		}
	}

	// A = 1000 (outside domain): impossible.
	got, err = featurize(f, wherePart(t, "A = 1000"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 13; i++ {
		if got[i] != 0 {
			t.Fatalf("A = 1000: entry %d = %v, want 0", i, got[i])
		}
	}

	// A <> 1000 (outside domain): no effect.
	got, err = featurize(f, wherePart(t, "A <> 1000"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if got[i] != 1 {
			t.Fatalf("A <> 1000: entry %d = %v, want 1", i, got[i])
		}
	}
}

func TestConjunctiveRejectsDisjunction(t *testing.T) {
	f := NewConjunctive(paperMeta(), DefaultOptions())
	if _, err := featurize(f, wherePart(t, "A = 1 OR A = 2")); err == nil {
		t.Error("Universal Conjunction Encoding must reject disjunctions")
	}
}

func TestComplexRejectsCrossAttributeOr(t *testing.T) {
	f := NewComplex(paperMeta(), DefaultOptions())
	if _, err := featurize(f, wherePart(t, "A = 1 OR B = 2")); err == nil {
		t.Error("Limited Disjunction Encoding must reject non-mixed queries")
	}
}

func TestUnknownAttributeErrors(t *testing.T) {
	meta := paperMeta()
	opts := DefaultOptions()
	for _, name := range QFTNames() {
		f, err := New(name, meta, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := featurize(f, wherePart(t, "nosuch = 1")); err == nil {
			t.Errorf("%s: expected error for unknown attribute", name)
		}
	}
}

func TestNewUnknownQFT(t *testing.T) {
	if _, err := New("bogus", paperMeta(), DefaultOptions()); err == nil {
		t.Error("expected error for unknown QFT name")
	}
}

func TestFeaturizersAreDeterministic(t *testing.T) {
	meta := paperMeta()
	expr := wherePart(t, "(A > -2 AND A <= 30 AND A <> 7 OR A >= 42) AND B >= 40")
	conjExpr := wherePart(t, "A < 7 AND B >= 30 AND B <= 100 AND B <> 66")
	for _, name := range QFTNames() {
		f, err := New(name, meta, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		e := conjExpr
		if name == "complex" {
			e = expr
		}
		v1, err := featurize(f, e)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := featurize(f, e)
		if err != nil {
			t.Fatal(err)
		}
		vecEq(t, v2, v1, name+" determinism")
		if len(v1) != f.Dim() {
			t.Errorf("%s: len(vec) = %d, Dim() = %d", name, len(v1), f.Dim())
		}
	}
}

// TestPrefixPredsFeaturizable: a string-prefix predicate, once exec.Bind has
// rewritten it into the code range its prefix covers in the sorted
// dictionary, flows through Universal Conjunction Encoding like any range —
// the Section 6 claim.
func TestPrefixPredsFeaturizable(t *testing.T) {
	tbl := table.New("t")
	tbl.MustAddColumn(table.NewStringColumn("s", []string{"apple", "apricot", "banana", "cherry"}))
	db := table.NewDB()
	db.MustAdd(tbl)
	q := sqlparse.MustParse("SELECT count(*) FROM t WHERE s LIKE 'ap%'")
	if err := exec.Bind(q, db); err != nil {
		t.Fatal(err)
	}
	meta := NewTableMeta(tbl, 26)
	vec, err := NewConjunctive(meta, Options{MaxEntriesPerAttr: 26, AttrSel: true}).Featurize(q.Where)
	if err != nil {
		t.Fatal(err)
	}
	// Domain is 4 codes; apple(0), apricot(1) qualify; banana(2), cherry(3)
	// do not.
	want := []float64{1, 1, 0, 0, 0.5}
	if !slices.Equal(vec, want) {
		t.Fatalf("prefix featurization = %v, want %v", vec, want)
	}
}
