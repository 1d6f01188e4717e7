package core

import (
	"math"
	"math/rand"
	"testing"

	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// trueSel is the fraction of tbl's rows qualifying expr, counted exactly.
func trueSel(t *testing.T, tbl *table.Table, expr sqlparse.Expr) float64 {
	t.Helper()
	db := table.NewDB()
	if err := db.Add(tbl); err != nil {
		t.Fatal(err)
	}
	n, err := exec.Count(db, &sqlparse.Query{Tables: []string{tbl.Name}, Where: expr})
	if err != nil {
		t.Fatal(err)
	}
	return float64(n) / float64(tbl.NumRows())
}

func TestAttachWeightsSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tbl := randTable(rng, 500)
	meta := NewTableMetaWeighted(tbl, 8)
	for _, a := range meta.Attrs {
		if a.Weights == nil {
			t.Fatalf("attribute %q has no weights", a.Name)
		}
		if len(a.Weights) != a.NEntries {
			t.Fatalf("attribute %q: %d weights for %d entries", a.Name, len(a.Weights), a.NEntries)
		}
		var sum float64
		for _, w := range a.Weights {
			if w < 0 {
				t.Fatalf("attribute %q: negative weight %v", a.Name, w)
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("attribute %q: weights sum to %v", a.Name, sum)
		}
	}
}

// TestWeightedSelExactAtFullResolution: with one partition per value and
// frequency weights, the appended selectivity equals the *true* selectivity
// for any conjunctive predicate set — strictly sharper than the uniformity
// assumption the paper uses.
func TestWeightedSelExactAtFullResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tbl := randTable(rng, 400)
	meta := NewTableMetaWeighted(tbl, 1000) // exact partitions
	for trial := 0; trial < 200; trial++ {
		a := meta.Attrs[rng.Intn(len(meta.Attrs))]
		sub := NewTableMetaFromAttrs("t", []AttrMeta{{Name: a.Name, Min: a.Min, Max: a.Max}}, a.NEntries)
		expr := randConjunction(rng, sub, 4)
		_, sel, err := FeaturizeAttrConjunction(a, sqlparse.CollectPreds(expr))
		if err != nil {
			t.Fatal(err)
		}
		truth := trueSel(t, tbl, expr)
		if math.Abs(sel-truth) > 1e-9 {
			t.Fatalf("trial %d: weighted sel %v != true selectivity %v for %s", trial, sel, truth, expr)
		}
	}
}

// TestWeightedSelBeatsUniformOnSkew: on a heavily skewed column, the
// frequency-weighted estimate is closer to the truth than the uniformity
// estimate for range predicates over the dense region.
func TestWeightedSelBeatsUniformOnSkew(t *testing.T) {
	// 90% of rows in [0, 9], 10% spread over [10, 999].
	rng := rand.New(rand.NewSource(3))
	vals := make([]int64, 5000)
	for i := range vals {
		if rng.Float64() < 0.9 {
			vals[i] = int64(rng.Intn(10))
		} else {
			vals[i] = int64(10 + rng.Intn(990))
		}
	}
	tbl := table.New("t")
	tbl.MustAddColumn(table.NewColumn("a", vals))
	plain := NewTableMeta(tbl, 16)
	weighted := NewTableMetaWeighted(tbl, 16)

	expr := sqlparse.NewAnd(
		&sqlparse.Pred{Attr: "a", Op: sqlparse.OpGe, Val: 0},
		&sqlparse.Pred{Attr: "a", Op: sqlparse.OpLe, Val: 62}, // dense head + a bit
	)
	truth := trueSel(t, tbl, expr)
	_, selU, err := FeaturizeAttrConjunction(plain.Attrs[0], sqlparse.CollectPreds(expr))
	if err != nil {
		t.Fatal(err)
	}
	_, selW, err := FeaturizeAttrConjunction(weighted.Attrs[0], sqlparse.CollectPreds(expr))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("truth=%.3f uniform=%.3f weighted=%.3f", truth, selU, selW)
	if math.Abs(selW-truth) >= math.Abs(selU-truth) {
		t.Errorf("weighted estimate %v not closer to truth %v than uniform %v", selW, truth, selU)
	}
}

func TestWeightedSelOnCompound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tbl := randTable(rng, 300)
	meta := NewTableMetaWeighted(tbl, 1000)
	a := meta.Attrs[0]
	expr := sqlparse.NewOr(
		sqlparse.NewAnd(
			&sqlparse.Pred{Attr: a.Name, Op: sqlparse.OpGe, Val: a.Min},
			&sqlparse.Pred{Attr: a.Name, Op: sqlparse.OpLe, Val: a.Min + 5},
		),
		&sqlparse.Pred{Attr: a.Name, Op: sqlparse.OpGe, Val: a.Max - 3},
	)
	_, sel, err := FeaturizeAttrCompound(a, expr)
	if err != nil {
		t.Fatal(err)
	}
	truth := trueSel(t, tbl, expr)
	if math.Abs(sel-truth) > 1e-9 {
		t.Fatalf("compound weighted sel %v != truth %v", sel, truth)
	}
}

func TestSpecRejectsBadWeights(t *testing.T) {
	spec := MetaSpec{Name: "t", Attrs: []AttrMeta{
		{Name: "a", Min: 0, Max: 9, NEntries: 4, Weights: []float64{0.5, 0.5}},
	}}
	if _, err := NewTableMetaFromSpec(spec); err == nil {
		t.Error("mismatched weights length accepted")
	}
}
