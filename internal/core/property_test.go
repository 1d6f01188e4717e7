package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// This file verifies the paper's formal claims as executable properties:
//
//   - Definition 3.1 (lossless query featurization): with one partition per
//     distinct value, decoding a Universal Conjunction Encoding vector and
//     counting the admitted rows reproduces the query's true cardinality.
//   - Lemma 3.2 (convergence): increasing n never widens the decoded
//     admission bounds, and beyond n = domain size the vector is stable.
//   - Conjunction monotonicity: adding a conjunct can only decrease entries.
//   - Disjunction monotonicity: adding a disjunct can only increase entries.
//   - Order freedom: Algorithm 1 keeps the entry-wise minimum of its
//     predicates' vectors, so a conjunction's predicates may come in any
//     order; and distributing a conjunct over a disjunction changes nothing.

// randTable builds a random 3-attribute table with small domains so that
// exact partitioning is cheap.
func randTable(rng *rand.Rand, rows int) *table.Table {
	t := table.New("t")
	a := make([]int64, rows)
	b := make([]int64, rows)
	c := make([]int64, rows)
	for i := 0; i < rows; i++ {
		a[i] = int64(rng.Intn(40) - 10)
		b[i] = int64(rng.Intn(25))
		c[i] = int64(rng.Intn(4))
	}
	t.MustAddColumn(table.NewColumn("a", a))
	t.MustAddColumn(table.NewColumn("b", b))
	t.MustAddColumn(table.NewColumn("c", c))
	return t
}

// randConjunction builds a random conjunctive expression over tbl's columns
// with literals inside (and slightly beyond) each domain.
func randConjunction(rng *rand.Rand, meta *TableMeta, maxPreds int) sqlparse.Expr {
	ops := []sqlparse.CmpOp{sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe}
	k := 1 + rng.Intn(maxPreds)
	kids := make([]sqlparse.Expr, 0, k)
	for i := 0; i < k; i++ {
		a := meta.Attrs[rng.Intn(len(meta.Attrs))]
		span := a.DomainSize() + 4
		val := a.Min - 2 + int64(rng.Int63n(span))
		kids = append(kids, &sqlparse.Pred{Attr: a.Name, Op: ops[rng.Intn(len(ops))], Val: val})
	}
	return sqlparse.NewAnd(kids...)
}

// randMixed builds a random mixed query (Definition 3.3): a conjunction of
// per-attribute compound predicates, each an OR of small conjunctions.
func randMixed(rng *rand.Rand, meta *TableMeta) sqlparse.Expr {
	var compounds []sqlparse.Expr
	for _, a := range meta.Attrs {
		if rng.Intn(2) == 0 {
			continue
		}
		branches := 1 + rng.Intn(3)
		var disj []sqlparse.Expr
		for b := 0; b < branches; b++ {
			sub := NewTableMetaFromAttrs("t", []AttrMeta{{Name: a.Name, Min: a.Min, Max: a.Max}}, a.NEntries)
			disj = append(disj, randConjunction(rng, sub, 3))
		}
		compounds = append(compounds, sqlparse.NewOr(disj...))
	}
	return sqlparse.NewAnd(compounds...)
}

// TestLosslessnessAtFullResolution is the executable form of Definition 3.1:
// with n >= domain size, featurize a random conjunctive query, decode the
// vector, and verify the decoded admission sets reproduce the true count.
func TestLosslessnessAtFullResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	tbl := randTable(rng, 400)
	meta := NewTableMeta(tbl, 1000) // every attribute gets one entry per value
	opts := Options{MaxEntriesPerAttr: 1000, AttrSel: false}
	f := NewConjunctive(meta, opts)

	for trial := 0; trial < 300; trial++ {
		expr := randConjunction(rng, meta, 6)
		vec, err := featurize(f, expr)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodePartitioned(meta, opts, vec)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range decoded {
			if !d.Exact() {
				t.Fatalf("trial %d: partial bucket at full resolution for %s", trial, expr)
			}
		}
		got, exact, err := CountDecoded(tbl, decoded)
		if err != nil {
			t.Fatal(err)
		}
		if !exact {
			t.Fatalf("trial %d: decode not exact", trial)
		}
		bm, err := exec.EvalExpr(tbl, expr)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(bm.Count()); got != want {
			t.Fatalf("trial %d: decoded count %d != true count %d for %s", trial, got, want, expr)
		}
	}
}

// TestLosslessnessComplexAtFullResolution extends the Definition 3.1 check
// to mixed queries under Limited Disjunction Encoding, verifying the
// convergence claim at the end of Section 3.3.
func TestLosslessnessComplexAtFullResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	tbl := randTable(rng, 400)
	meta := NewTableMeta(tbl, 1000)
	opts := Options{MaxEntriesPerAttr: 1000, AttrSel: false}
	f := NewComplex(meta, opts)

	for trial := 0; trial < 200; trial++ {
		expr := randMixed(rng, meta)
		if expr == nil {
			continue
		}
		vec, err := featurize(f, expr)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodePartitioned(meta, opts, vec)
		if err != nil {
			t.Fatal(err)
		}
		got, exact, err := CountDecoded(tbl, decoded)
		if err != nil {
			t.Fatal(err)
		}
		if !exact {
			t.Fatalf("trial %d: decode not exact at full resolution", trial)
		}
		bm, err := exec.EvalExpr(tbl, expr)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(bm.Count()); got != want {
			t.Fatalf("trial %d: decoded count %d != true count %d for %s", trial, got, want, expr)
		}
	}
}

// TestDecodedBoundsBracketTruth verifies that at *any* resolution the
// decoded lower/upper bounds bracket the true cardinality — the quantified
// form of "information loss only up to the partition size" (Section 3.2).
func TestDecodedBoundsBracketTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	tbl := randTable(rng, 300)
	for _, n := range []int{2, 4, 8, 16, 64} {
		meta := NewTableMeta(tbl, n)
		opts := Options{MaxEntriesPerAttr: n, AttrSel: false}
		f := NewConjunctive(meta, opts)
		for trial := 0; trial < 100; trial++ {
			expr := randConjunction(rng, meta, 5)
			vec, err := featurize(f, expr)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodePartitioned(meta, opts, vec)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi, err := CountDecodedBounds(tbl, decoded)
			if err != nil {
				t.Fatal(err)
			}
			bm, err := exec.EvalExpr(tbl, expr)
			if err != nil {
				t.Fatal(err)
			}
			truth := int64(bm.Count())
			if truth < lo || truth > hi {
				t.Fatalf("n=%d trial %d: truth %d outside decoded bounds [%d, %d] for %s",
					n, trial, truth, lo, hi, expr)
			}
		}
	}
}

// TestLemma32Convergence: beyond n = domain size, growing n further leaves
// the per-attribute vectors unchanged (they saturate at one entry per
// value), which is the "does not change anymore" reading of Lemma 3.2.
func TestLemma32Convergence(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	tbl := randTable(rng, 100)
	metaA := NewTableMeta(tbl, 64)  // 64 >= every domain size here
	metaB := NewTableMeta(tbl, 256) // even larger cap
	optsA := Options{MaxEntriesPerAttr: 64, AttrSel: false}
	optsB := Options{MaxEntriesPerAttr: 256, AttrSel: false}
	fa := NewConjunctive(metaA, optsA)
	fb := NewConjunctive(metaB, optsB)
	for trial := 0; trial < 100; trial++ {
		expr := randConjunction(rng, metaA, 5)
		va, err := featurize(fa, expr)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := featurize(fb, expr)
		if err != nil {
			t.Fatal(err)
		}
		if len(va) != len(vb) {
			t.Fatalf("saturated dims differ: %d vs %d", len(va), len(vb))
		}
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("trial %d: vector changed beyond saturation at entry %d", trial, i)
			}
		}
	}
}

// TestConjunctionMonotonicity: appending a conjunct never increases any
// partition entry (Algorithm 1's "can only be decreased" invariant).
func TestConjunctionMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	tbl := randTable(rng, 50)
	meta := NewTableMeta(tbl, 16)
	opts := Options{MaxEntriesPerAttr: 16, AttrSel: false}
	f := NewConjunctive(meta, opts)
	for trial := 0; trial < 300; trial++ {
		base := randConjunction(rng, meta, 4)
		extra := randConjunction(rng, meta, 1)
		vBase, err := featurize(f, base)
		if err != nil {
			t.Fatal(err)
		}
		vMore, err := featurize(f, sqlparse.NewAnd(base, extra))
		if err != nil {
			t.Fatal(err)
		}
		for i := range vBase {
			if vMore[i] > vBase[i] {
				t.Fatalf("trial %d: entry %d grew from %v to %v after adding conjunct %s",
					trial, i, vBase[i], vMore[i], extra)
			}
		}
	}
}

// TestDisjunctionMonotonicity: appending a disjunct to a compound predicate
// never decreases any partition entry (Algorithm 2's max-merge mirrors that
// disjunctions only make queries less selective).
func TestDisjunctionMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	tbl := randTable(rng, 50)
	meta := NewTableMeta(tbl, 16)
	a := meta.Attrs[0]
	sub := NewTableMetaFromAttrs("t", []AttrMeta{{Name: a.Name, Min: a.Min, Max: a.Max}}, 16)
	for trial := 0; trial < 300; trial++ {
		c1 := randConjunction(rng, sub, 3)
		c2 := randConjunction(rng, sub, 3)
		v1, _, err := FeaturizeAttrCompound(a, c1)
		if err != nil {
			t.Fatal(err)
		}
		v12, _, err := FeaturizeAttrCompound(a, sqlparse.NewOr(c1, c2))
		if err != nil {
			t.Fatal(err)
		}
		for i := range v1 {
			if v12[i] < v1[i] {
				t.Fatalf("trial %d: entry %d shrank from %v to %v after adding disjunct", trial, i, v1[i], v12[i])
			}
		}
	}
}

// TestPartitionSemanticsAgainstData cross-checks every partition entry's
// claim against the data: a 1-entry's bucket must have all its *present*
// values qualifying, a 0-entry none.
func TestPartitionSemanticsAgainstData(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	tbl := randTable(rng, 200)
	for _, n := range []int{3, 7, 16} {
		meta := NewTableMeta(tbl, n)
		opts := Options{MaxEntriesPerAttr: n, AttrSel: false}
		f := NewConjunctive(meta, opts)
		for trial := 0; trial < 100; trial++ {
			// Single-attribute conjunctions keep the check direct.
			a := meta.Attrs[rng.Intn(len(meta.Attrs))]
			sub := NewTableMetaFromAttrs("t", []AttrMeta{{Name: a.Name, Min: a.Min, Max: a.Max}}, n)
			expr := randConjunction(rng, sub, 4)
			vec, err := featurize(f, expr)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodePartitioned(meta, opts, vec)
			if err != nil {
				t.Fatal(err)
			}
			var d DecodedAttr
			for _, cand := range decoded {
				if cand.Attr.Name == a.Name {
					d = cand
				}
			}
			preds := sqlparse.CollectPreds(expr)
			qualifies := func(v int64) bool {
				for _, p := range preds {
					if !predHolds(p, v) {
						return false
					}
				}
				return true
			}
			for v := a.Min; v <= a.Max; v++ {
				idx := a.BucketOf(v)
				switch d.States[idx] {
				case BucketFull:
					if !qualifies(v) {
						t.Fatalf("n=%d: bucket %d marked full but value %d fails %s", n, idx, v, expr)
					}
				case BucketEmpty:
					if qualifies(v) {
						t.Fatalf("n=%d: bucket %d marked empty but value %d qualifies %s", n, idx, v, expr)
					}
				}
			}
		}
	}
}

func predHolds(p *sqlparse.Pred, v int64) bool {
	switch p.Op {
	case sqlparse.OpEq:
		return v == p.Val
	case sqlparse.OpNe:
		return v != p.Val
	case sqlparse.OpLt:
		return v < p.Val
	case sqlparse.OpLe:
		return v <= p.Val
	case sqlparse.OpGt:
		return v > p.Val
	case sqlparse.OpGe:
		return v >= p.Val
	}
	return false
}

// TestAttrSelMatchesUniformTruth: on a table holding every domain value with
// equal frequency, the per-attribute selectivity estimate is exact.
func TestAttrSelMatchesUniformTruth(t *testing.T) {
	vals := make([]int64, 0, 100)
	for rep := 0; rep < 4; rep++ {
		for v := int64(0); v < 25; v++ {
			vals = append(vals, v)
		}
	}
	tbl := table.New("u")
	tbl.MustAddColumn(table.NewColumn("a", vals))
	meta := NewTableMeta(tbl, 8)
	a := meta.Attrs[0]
	rng := rand.New(rand.NewSource(808))

	for trial := 0; trial < 200; trial++ {
		expr := randConjunction(rng, meta, 3)
		preds := sqlparse.CollectPreds(expr)
		_, sel, err := FeaturizeAttrConjunction(a, preds)
		if err != nil {
			t.Fatal(err)
		}
		// True selectivity on the uniform table.
		bm, err := exec.EvalExpr(tbl, expr)
		if err != nil {
			t.Fatal(err)
		}
		truth := float64(bm.Count()) / float64(tbl.NumRows())
		// The estimate ignores <>-exclusions outside the surviving range
		// and counts each surviving <> exactly once, so on a uniform table
		// the only divergence source is repeated <> on the same value.
		if diff := sel - truth; diff > 0.05 || diff < -0.05 {
			t.Fatalf("trial %d: attrSel=%v truth=%v for %s", trial, sel, truth, expr)
		}
	}
}

// TestDecodeRejectsForeignVectors ensures the decoder validates shape and
// entry values.
func TestDecodeRejectsForeignVectors(t *testing.T) {
	meta := paperMeta()
	opts := Options{MaxEntriesPerAttr: 12, AttrSel: false}
	if _, err := DecodePartitioned(meta, opts, make([]float64, 5)); err == nil {
		t.Error("expected error for wrong-length vector")
	}
	bad := make([]float64, 26)
	for i := range bad {
		bad[i] = 1
	}
	bad[3] = 0.7 // non-categorical
	if _, err := DecodePartitioned(meta, opts, bad); err == nil {
		t.Error("expected error for non-categorical entry")
	}
}

// TestBucketStateString covers the stringer.
func TestBucketStateString(t *testing.T) {
	if BucketEmpty.String() != "0" || BucketPartial.String() != "1/2" || BucketFull.String() != "1" {
		t.Error("BucketState strings wrong")
	}
	if BucketState(9).String() == "" {
		t.Error("unknown state should still render")
	}
}

// TestFeaturizeManyAttrsStress featurizes against a wide table, ensuring
// per-attribute blocks stay aligned.
func TestFeaturizeManyAttrsStress(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	tbl := table.New("wide")
	for c := 0; c < 20; c++ {
		vals := make([]int64, 100)
		for i := range vals {
			vals[i] = int64(rng.Intn(30))
		}
		tbl.MustAddColumn(table.NewColumn(fmt.Sprintf("c%02d", c), vals))
	}
	meta := NewTableMeta(tbl, 8)
	opts := Options{MaxEntriesPerAttr: 8, AttrSel: true}
	f := NewConjunctive(meta, opts)
	expr := sqlparse.NewAnd(
		&sqlparse.Pred{Attr: "c07", Op: sqlparse.OpGe, Val: 10},
		&sqlparse.Pred{Attr: "c13", Op: sqlparse.OpLt, Val: 5},
	)
	vec, err := featurize(f, expr)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != f.Dim() {
		t.Fatalf("dim mismatch: %d vs %d", len(vec), f.Dim())
	}
	decoded, err := DecodePartitioned(meta, opts, vec)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range decoded {
		name := d.Attr.Name
		constrainedAttr := name == "c07" || name == "c13"
		allOnes := true
		for _, s := range d.States {
			if s != BucketFull {
				allOnes = false
			}
		}
		if constrainedAttr && allOnes {
			t.Errorf("attribute %s (index %d) should be constrained", name, i)
		}
		if !constrainedAttr && !allOnes {
			t.Errorf("attribute %s (index %d) should be unconstrained", name, i)
		}
	}
}

// weightedAttr is a with frequency weights attached: partition k holds a
// share proportional to k+1.
func weightedAttr(a AttrMeta) AttrMeta {
	a.Weights = make([]float64, a.NEntries)
	total := float64(a.NEntries*(a.NEntries+1)) / 2
	for k := range a.Weights {
		a.Weights[k] = float64(k+1) / total
	}
	return a
}

// edgeAttrs are extremeAttrs with a weighted twin of each.
func edgeAttrs() map[string]AttrMeta {
	attrs := extremeAttrs()
	for name, a := range extremeAttrs() {
		attrs[name+", weighted"] = weightedAttr(a)
	}
	return attrs
}

// sortedNames returns the keys of attrs in order, for a deterministic walk.
func sortedNames(attrs map[string]AttrMeta) []string {
	names := make([]string, 0, len(attrs))
	for name := range attrs {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// randomPreds draws a conjunction of one to max simple predicates on
// attribute attr with literals from lits.
func randomPreds(rng *rand.Rand, attr string, lits []int64, max int) []*sqlparse.Pred {
	ops := []sqlparse.CmpOp{sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe}
	preds := make([]*sqlparse.Pred, 1+rng.Intn(max))
	for i := range preds {
		preds[i] = &sqlparse.Pred{Attr: attr, Op: ops[rng.Intn(len(ops))], Val: lits[rng.Intn(len(lits))]}
	}
	return preds
}

// vecAndSel is a partition vector with its selectivity estimate appended.
func vecAndSel(t *testing.T, label string, vec []float64, sel float64, err error) []float64 {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return append(vec, sel)
}

// TestAlgorithm1IsOrderFree: every permutation tried of a conjunction's
// predicates gives the vector and the selectivity estimate of the original
// order, bit for bit — on the edge-case domains, with and without frequency
// weights, with literals on and around every partition edge and the int64
// extremes. This is what lets a conjunction be built a predicate at a time or
// from two halves in either order.
func TestAlgorithm1IsOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	attrs := edgeAttrs()
	for _, name := range sortedNames(attrs) {
		a := attrs[name]
		lits := domainLiterals(&a, rng, 48)
		for trial := 0; trial < 200; trial++ {
			preds := randomPreds(rng, "A", lits, 7)
			label := fmt.Sprintf("%s: %s", name, sqlparse.NewAnd(predExprs(preds)...))
			vec, sel, err := FeaturizeAttrConjunction(a, preds)
			want := vecAndSel(t, label, vec, sel, err)
			for perm := 0; perm < 4; perm++ {
				shuffled := slices.Clone(preds)
				rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				vec, sel, err := FeaturizeAttrConjunction(a, shuffled)
				got := vecAndSel(t, label, vec, sel, err)
				sameBits(t, fmt.Sprintf("%s, as %s", label, sqlparse.NewAnd(predExprs(shuffled)...)), want, got)
			}
		}
	}
}

// TestDistributedAndFeaturizesAlike: on one attribute, A AND (B OR C) and
// (A AND B) OR (A AND C) featurize alike — partition vector and selectivity
// estimate bit for bit, alone and as a whole query's block under Limited
// Disjunction Encoding — for random conjunctions A, B and C on the edge-case
// domains, with and without frequency weights.
func TestDistributedAndFeaturizesAlike(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	attrs := edgeAttrs()
	for _, name := range sortedNames(attrs) {
		a := attrs[name]
		meta, err := NewTableMetaFromSpec(MetaSpec{Name: "t", Attrs: []AttrMeta{a}})
		if err != nil {
			t.Fatal(err)
		}
		f := NewComplex(meta, Options{MaxEntriesPerAttr: 32, AttrSel: true})
		lits := domainLiterals(&a, rng, 48)
		conj := func() sqlparse.Expr { return sqlparse.NewAnd(predExprs(randomPreds(rng, "A", lits, 3))...) }
		for trial := 0; trial < 300; trial++ {
			x, y, z := conj(), conj(), conj()
			factored := sqlparse.NewAnd(x, sqlparse.NewOr(y, z))
			distributed := sqlparse.NewOr(sqlparse.NewAnd(x, y), sqlparse.NewAnd(x, z))
			label := fmt.Sprintf("%s: %s vs %s", name, factored, distributed)
			vec, sel, err := FeaturizeAttrCompound(a, factored)
			want := vecAndSel(t, label, vec, sel, err)
			vec, sel, err = FeaturizeAttrCompound(a, distributed)
			sameBits(t, label, want, vecAndSel(t, label, vec, sel, err))
			wantQ, err := featurize(f, factored)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			gotQ, err := featurize(f, distributed)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameBits(t, label+" (complex)", wantQ, gotQ)
		}
	}
}

// predExprs lifts preds to expressions.
func predExprs(preds []*sqlparse.Pred) []sqlparse.Expr {
	out := make([]sqlparse.Expr, len(preds))
	for i, p := range preds {
		out[i] = p
	}
	return out
}
