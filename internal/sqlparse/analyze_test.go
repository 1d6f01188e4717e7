package sqlparse

import (
	"math/rand"
	"testing"
)

func pred(attr string, op CmpOp, val int64) *Pred {
	return &Pred{Attr: attr, Op: op, Val: val}
}

func TestIsConjunctive(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"SELECT count(*) FROM t WHERE a = 1", true},
		{"SELECT count(*) FROM t WHERE a = 1 AND b = 2 AND a < 5", true},
		{"SELECT count(*) FROM t WHERE a = 1 OR a = 2", false},
		{"SELECT count(*) FROM t WHERE a = 1 AND (b = 2 OR b = 3)", false},
		{"SELECT count(*) FROM t", true},
	}
	for _, tc := range cases {
		q := MustParse(tc.src)
		if got := IsConjunctive(q.Where); got != tc.want {
			t.Errorf("IsConjunctive(%s) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestCompoundPredicatesMergesSameAttr(t *testing.T) {
	// Two top-level conjuncts on the same attribute merge into one compound.
	q := MustParse("SELECT count(*) FROM t WHERE (a = 1 OR a = 2) AND b > 3 AND (a <> 2)")
	comps, err := CompoundPredicates(q.Where)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 2 {
		t.Fatalf("got %d compounds, want 2", len(comps))
	}
	if comps[0].Attr != "a" || comps[1].Attr != "b" {
		t.Errorf("compound order = %v, %v", comps[0].Attr, comps[1].Attr)
	}
	if got := len(CollectPreds(comps[0].Expr)); got != 3 {
		t.Errorf("merged compound on a has %d preds, want 3", got)
	}
}

func TestCompoundPredicatesRejectsCrossAttrOr(t *testing.T) {
	q := MustParse("SELECT count(*) FROM t WHERE a = 1 OR b = 2")
	if _, err := CompoundPredicates(q.Where); err == nil {
		t.Error("cross-attribute OR must not be a mixed query")
	}
	if IsMixed(q.Where) {
		t.Error("IsMixed should be false for cross-attribute OR")
	}
	// But per-attribute ORs are fine.
	q2 := MustParse("SELECT count(*) FROM t WHERE (a = 1 OR a = 2) AND b = 3")
	if !IsMixed(q2.Where) {
		t.Error("IsMixed should be true for per-attribute OR")
	}
}

func TestCompoundPredicatesNil(t *testing.T) {
	comps, err := CompoundPredicates(nil)
	if err != nil || comps != nil {
		t.Errorf("nil expr: comps=%v err=%v", comps, err)
	}
}

// evalExpr interprets an expression over an assignment, the reference
// semantics for the DNF test.
func evalExpr(e Expr, row map[string]int64) bool {
	switch n := e.(type) {
	case *Pred:
		v := row[n.Attr]
		switch n.Op {
		case OpEq:
			return v == n.Val
		case OpNe:
			return v != n.Val
		case OpLt:
			return v < n.Val
		case OpLe:
			return v <= n.Val
		case OpGt:
			return v > n.Val
		case OpGe:
			return v >= n.Val
		}
	case *And:
		for _, k := range n.Kids {
			if !evalExpr(k, row) {
				return false
			}
		}
		return true
	case *Or:
		for _, k := range n.Kids {
			if evalExpr(k, row) {
				return true
			}
		}
		return false
	}
	return false
}

func evalDNF(dnf [][]*Pred, row map[string]int64) bool {
	for _, conj := range dnf {
		all := true
		for _, p := range conj {
			if !evalExpr(p, row) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// randomExpr builds a random AND/OR tree over attributes a and b.
func randomExpr(rng *rand.Rand, depth int) Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		attrs := []string{"a", "b"}
		ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
		return pred(attrs[rng.Intn(2)], ops[rng.Intn(6)], int64(rng.Intn(10)))
	}
	k := 2 + rng.Intn(2)
	kids := make([]Expr, k)
	for i := range kids {
		kids[i] = randomExpr(rng, depth-1)
	}
	if rng.Intn(2) == 0 {
		return NewAnd(kids...)
	}
	return NewOr(kids...)
}

// TestToDNFSemanticsPreserved verifies DNF conversion against brute-force
// evaluation over the full small domain.
func TestToDNFSemanticsPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		e := randomExpr(rng, 3)
		dnf, err := ToDNF(e)
		if err != nil {
			t.Fatalf("ToDNF(%s): %v", e, err)
		}
		for a := int64(0); a < 10; a++ {
			for b := int64(0); b < 10; b++ {
				row := map[string]int64{"a": a, "b": b}
				if evalExpr(e, row) != evalDNF(dnf, row) {
					t.Fatalf("DNF differs from source on a=%d b=%d: %s", a, b, e)
				}
			}
		}
	}
}

func TestToDNFShapes(t *testing.T) {
	// (p1 OR p2) AND (p3 OR p4) must yield 4 conjunctions of 2 predicates.
	e := NewAnd(
		NewOr(pred("a", OpEq, 1), pred("a", OpEq, 2)),
		NewOr(pred("b", OpEq, 3), pred("b", OpEq, 4)),
	)
	dnf, err := ToDNF(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(dnf) != 4 {
		t.Fatalf("got %d terms, want 4", len(dnf))
	}
	for _, term := range dnf {
		if len(term) != 2 {
			t.Errorf("term has %d preds, want 2", len(term))
		}
	}
}

func TestToDNFBlowupGuard(t *testing.T) {
	// AND of many ORs must hit the blow-up bound, not OOM.
	var kids []Expr
	for i := 0; i < 20; i++ {
		kids = append(kids, NewOr(pred("a", OpEq, int64(i)), pred("a", OpEq, int64(i+100))))
	}
	if _, err := ToDNF(NewAnd(kids...)); err == nil {
		t.Error("expected blow-up error for 2^20 DNF terms")
	}
}

func TestToDNFNil(t *testing.T) {
	dnf, err := ToDNF(nil)
	if err != nil || dnf != nil {
		t.Errorf("ToDNF(nil) = %v, %v", dnf, err)
	}
}

func TestAttrsSortedUnique(t *testing.T) {
	q := MustParse("SELECT count(*) FROM t WHERE b = 1 AND a = 2 AND b < 9")
	got := Attrs(q.Where)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Attrs = %v", got)
	}
}

func TestConjuncts(t *testing.T) {
	q := MustParse("SELECT count(*) FROM t WHERE a = 1 AND b = 2 AND c = 3")
	if got := len(Conjuncts(q.Where)); got != 3 {
		t.Errorf("Conjuncts = %d, want 3", got)
	}
	if got := len(Conjuncts(nil)); got != 0 {
		t.Errorf("Conjuncts(nil) = %d", got)
	}
	q2 := MustParse("SELECT count(*) FROM t WHERE a = 1 OR a = 2")
	if got := len(Conjuncts(q2.Where)); got != 1 {
		t.Errorf("Conjuncts of Or = %d, want 1", got)
	}
}

func TestPredsPerAttr(t *testing.T) {
	q := MustParse("SELECT count(*) FROM t WHERE a > 1 AND b = 2 AND a < 5")
	per := PredsPerAttr(q.Where)
	if len(per["a"]) != 2 || len(per["b"]) != 1 {
		t.Errorf("PredsPerAttr = %v", per)
	}
	if per["a"][0].Op != OpGt || per["a"][1].Op != OpLt {
		t.Error("per-attribute order not preserved")
	}
}
