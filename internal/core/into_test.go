package core

import (
	"math"
	"math/rand"
	"testing"

	"qfe/internal/sqlparse"
)

// Differential coverage for FeaturizeInto: for every QFT, on randomized
// expressions and dirty reused buffers, the scratch-based walk must reproduce
// the allocating implementation it replaced (oracle_test.go) bit for bit —
// the contract that keeps models trained before the rewrite valid after it.

// poison fills dst with NaN so any entry FeaturizeInto fails to overwrite is
// caught by the comparison.
func poison(dst []float64) {
	for i := range dst {
		dst[i] = math.NaN()
	}
}

func sameVec(t *testing.T, trial int, name string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s trial %d: length %d vs %d", name, trial, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s trial %d: entry %d = %v, want %v", name, trial, i, got[i], want[i])
		}
	}
}

// TestFeaturizeIntoMatchesOracle runs every QFT (with and without the
// selectivity entries, with and without frequency weights) over randomized
// conjunctions, comparing both paths bit for bit on a single reused buffer.
func TestFeaturizeIntoMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	tbl := randTable(rng, 300)
	for _, attrSel := range []bool{false, true} {
		for _, weighted := range []bool{false, true} {
			var meta *TableMeta
			if weighted {
				meta = NewTableMetaWeighted(tbl, 16)
			} else {
				meta = NewTableMeta(tbl, 16)
			}
			opts := Options{MaxEntriesPerAttr: 16, AttrSel: attrSel}
			for _, name := range []string{"conjunctive", "complex"} {
				f, err := New(name, meta, opts)
				if err != nil {
					t.Fatal(err)
				}
				dst := make([]float64, f.Dim())
				for trial := 0; trial < 400; trial++ {
					expr := randConjunction(rng, meta, 5)
					want, err := oracleFeaturize(f, expr)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					poison(dst)
					if err := featurizeInto(f, dst, expr); err != nil {
						t.Fatalf("%s: FeaturizeInto: %v", name, err)
					}
					sameVec(t, trial, name, want, dst)
				}
				// The no-predicate encoding must match too.
				want, err := oracleFeaturize(f, nil)
				if err != nil {
					t.Fatalf("%s: nil expr: %v", name, err)
				}
				poison(dst)
				if err := featurizeInto(f, dst, nil); err != nil {
					t.Fatalf("%s: FeaturizeInto nil expr: %v", name, err)
				}
				sameVec(t, -1, name+"/nil", want, dst)
			}
		}
	}
}

// TestFeaturizeIntoMatchesOracleMixed exercises Limited Disjunction
// Encoding on mixed queries (Definition 3.3), where the shared scratch
// crosses disjuncts and attributes.
func TestFeaturizeIntoMatchesOracleMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(5353))
	tbl := randTable(rng, 300)
	for _, attrSel := range []bool{false, true} {
		meta := NewTableMeta(tbl, 16)
		f := NewComplex(meta, Options{MaxEntriesPerAttr: 16, AttrSel: attrSel})
		dst := make([]float64, f.Dim())
		for trial := 0; trial < 400; trial++ {
			expr := randMixed(rng, meta)
			want, err := oracleComplex(f, expr)
			if err != nil {
				t.Fatal(err)
			}
			poison(dst)
			if err := featurizeInto(f, dst, expr); err != nil {
				t.Fatal(err)
			}
			sameVec(t, trial, "complex/mixed", want, dst)
		}
	}
}

// TestFeaturizeIntoErrors: walk and oracle must agree on rejection, and a
// wrong-length destination is refused outright.
func TestFeaturizeIntoErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8686))
	tbl := randTable(rng, 50)
	meta := NewTableMeta(tbl, 8)
	opts := Options{MaxEntriesPerAttr: 8, AttrSel: true}
	disj := sqlparse.NewOr(
		&sqlparse.Pred{Attr: "a", Op: sqlparse.OpEq, Val: 1},
		&sqlparse.Pred{Attr: "b", Op: sqlparse.OpEq, Val: 2},
	)
	unknown := &sqlparse.Pred{Attr: "nope", Op: sqlparse.OpEq, Val: 1}
	str := "x"
	unbound := &sqlparse.Pred{Attr: "a", Op: sqlparse.OpEq, Str: &str}
	for _, name := range []string{"conjunctive", "complex"} {
		f, err := New(name, meta, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := featurizeInto(f, make([]float64, f.Dim()+1), nil); err == nil {
			t.Errorf("%s: oversized destination accepted", name)
		}
		for _, bad := range []sqlparse.Expr{disj, unknown, unbound} {
			_, refErr := oracleFeaturize(f, bad)
			intoErr := featurizeInto(f, make([]float64, f.Dim()), bad)
			if (refErr == nil) != (intoErr == nil) {
				t.Errorf("%s: oracle err %v but FeaturizeInto err %v", name, refErr, intoErr)
			}
		}
	}
}
