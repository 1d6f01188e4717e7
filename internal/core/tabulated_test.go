package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qfe/internal/dataset"
	"qfe/internal/sqlparse"
	"qfe/internal/workload"
)

// The oracles of the tabulated partitioning and the one-lookup grouping: the
// partitioned featurizers' body as it was before either — Algorithm 1 calling
// AttrMeta.BucketOf and BucketRange per predicate on a copy of the
// attribute's metadata, and a grouping that looked every predicate's
// attribute up on its own — kept as the ground truth the serving code is
// compared against, vector for vector, bit for bit.

// untabulatedFeaturizeInto is partitioned.FeaturizeInto over the oracles.
func untabulatedFeaturizeInto(p *partitioned, dst []float64, expr sqlparse.Expr) error {
	sc, ts := new(scratch), new(termScratch)
	if err := sc.untabulatedGroup(p.name, p.meta, expr, p.orErr); err != nil {
		return err
	}
	for ai := range p.meta.Attrs {
		a := &p.meta.Attrs[ai]
		off := p.offsets[ai]
		block := dst[off : off+a.NEntries]
		sel := 1.0
		if p.orErr == nil && sc.head[ai] < 0 {
			fill(block, 1)
		} else {
			var err error
			if sel, err = ts.untabulatedAttrCompound(a, sc.attrKids(ai), block); err != nil {
				return err
			}
		}
		if p.opts.AttrSel {
			dst[off+a.NEntries] = sel
		}
	}
	return nil
}

func (sc *scratch) untabulatedGroup(qft string, meta *TableMeta, expr sqlparse.Expr, orErr error) error {
	sc.conj, sc.next = sc.conj[:0], sc.next[:0]
	sc.head, sc.tail = sc.head[:0], sc.tail[:0]
	for range meta.Attrs {
		sc.head = append(sc.head, -1)
		sc.tail = append(sc.tail, -1)
	}
	return sc.untabulatedAddConjuncts(qft, meta, expr, orErr)
}

func (sc *scratch) untabulatedAddConjuncts(qft string, meta *TableMeta, expr sqlparse.Expr, orErr error) error {
	switch n := expr.(type) {
	case nil:
		return nil
	case *sqlparse.And:
		for _, k := range n.Kids {
			if err := sc.untabulatedAddConjuncts(qft, meta, k, orErr); err != nil {
				return err
			}
		}
		return nil
	case *sqlparse.Or:
		if orErr != nil {
			return orErr
		}
	}
	ai, err := untabulatedConjunctAttr(qft, meta, expr, -1)
	if err != nil {
		return err
	}
	if ai < 0 {
		return Unsupported(fmt.Errorf("core/%s: conjunct %q has no predicates", qft, expr))
	}
	i := int32(len(sc.conj))
	sc.conj = append(sc.conj, expr)
	sc.next = append(sc.next, -1)
	if t := sc.tail[ai]; t >= 0 {
		sc.next[t] = i
	} else {
		sc.head[ai] = i
	}
	sc.tail[ai] = i
	return nil
}

// untabulatedConjunctAttr looks up the attribute of every predicate under expr.
func untabulatedConjunctAttr(qft string, meta *TableMeta, expr sqlparse.Expr, ai int) (int, error) {
	var kids []sqlparse.Expr
	switch n := expr.(type) {
	case *sqlparse.Pred:
		if n.Str != nil {
			return 0, fmt.Errorf("core/%s: unbound string predicate %s", qft, n)
		}
		i := meta.AttrIndex(n.Attr)
		if i < 0 {
			return 0, fmt.Errorf("core/%s: unknown attribute %q", qft, n.Attr)
		}
		if ai >= 0 && i != ai {
			return 0, Unsupported(fmt.Errorf("core/%s: not a mixed query (Definition 3.3): a conjunct mixes attributes %q and %q", qft, meta.Attrs[ai].Name, n.Attr))
		}
		return i, nil
	case *sqlparse.And:
		kids = n.Kids
	case *sqlparse.Or:
		kids = n.Kids
	}
	for _, k := range kids {
		var err error
		if ai, err = untabulatedConjunctAttr(qft, meta, k, ai); err != nil {
			return 0, err
		}
	}
	return ai, nil
}

func (sc *termScratch) untabulatedAttrCompound(a *AttrMeta, kids []sqlparse.Expr, dst []float64) (float64, error) {
	sc.preds, sc.terms = sc.preds[:0], sc.terms[:0]
	if err := sc.dnfAnd(kids); err != nil {
		return 0, fmt.Errorf("core/complex: attribute %q: %w", a.Name, err)
	}
	if cap(sc.part) < a.NEntries {
		sc.part = make([]float64, a.NEntries)
	}
	part := sc.part[:a.NEntries]
	fill(dst, 0)
	var mergedSel float64
	for _, t := range sc.terms {
		sel, err := sc.untabulatedAttrConjunction(*a, sc.preds[t.lo:t.hi], part)
		if err != nil {
			return 0, err
		}
		for i, v := range part {
			if v > dst[i] {
				dst[i] = v
			}
		}
		mergedSel += sel
	}
	if mergedSel > 1 {
		mergedSel = 1
	}
	if a.Weights != nil {
		mergedSel = weightedSel(a.Weights, dst)
	}
	return mergedSel, nil
}

// untabulatedAttrConjunction is Algorithm 1 placing every literal with BucketOf
// and BucketRange, on the attribute's metadata passed by value.
func (sc *termScratch) untabulatedAttrConjunction(a AttrMeta, preds []*sqlparse.Pred, vec []float64) (float64, error) {
	fill(vec, 1)
	minA, maxA := a.Min, a.Max
	sc.nots = sc.nots[:0]
	for _, p := range preds {
		if p.Str != nil {
			return 0, fmt.Errorf("core: unbound string predicate %s", p)
		}
		val := p.Val
		idx := a.BucketOf(val)
		inRange := idx >= 0 && idx < a.NEntries
		var lo, hi int64
		if inRange {
			lo, hi = a.BucketRange(idx)
		}
		switch p.Op {
		case sqlparse.OpEq:
			if !inRange {
				fill(vec, 0)
				minA, maxA = 1, 0
				continue
			}
			fill(vec[:idx], 0)
			fill(vec[idx+1:], 0)
			if lo != hi {
				markSplit(vec, idx)
			}
			minA, maxA = max(minA, val), min(maxA, val)
		case sqlparse.OpNe:
			if inRange {
				if lo == hi {
					vec[idx] = 0
				} else {
					markSplit(vec, idx)
				}
			}
			sc.nots = append(sc.nots, val)
		case sqlparse.OpGt, sqlparse.OpGe:
			bound := val
			if p.Op == sqlparse.OpGt {
				if val == math.MaxInt64 {
					fill(vec, 0)
					minA, maxA = 1, 0
					continue
				}
				bound = val + 1
			}
			switch {
			case bound <= a.Min:
			case bound > a.Max:
				fill(vec, 0)
			default:
				bIdx := a.BucketOf(bound)
				bLo, _ := a.BucketRange(bIdx)
				fill(vec[:bIdx], 0)
				if bound != bLo {
					markSplit(vec, bIdx)
				}
			}
			minA = max(minA, bound)
		case sqlparse.OpLt, sqlparse.OpLe:
			bound := val
			if p.Op == sqlparse.OpLt {
				if val == math.MinInt64 {
					fill(vec, 0)
					minA, maxA = 1, 0
					continue
				}
				bound = val - 1
			}
			switch {
			case bound >= a.Max:
			case bound < a.Min:
				fill(vec, 0)
			default:
				bIdx := a.BucketOf(bound)
				_, bHi := a.BucketRange(bIdx)
				fill(vec[bIdx+1:], 0)
				if bound != bHi {
					markSplit(vec, bIdx)
				}
			}
			maxA = min(maxA, bound)
		default:
			return 0, fmt.Errorf("core: unknown operator in %s", p)
		}
	}
	var sel float64
	switch {
	case a.Weights != nil:
		sel = weightedSel(a.Weights, vec)
	case maxA >= minA:
		slices.Sort(sc.nots)
		r := maxA - minA + 1
		for i, v := range sc.nots {
			if v >= minA && v <= maxA && (i == 0 || v != sc.nots[i-1]) {
				r--
			}
		}
		sel = float64(r) / float64(a.DomainSize())
	}
	return sel, nil
}

// sameBits fails unless got and want are equal bit for bit.
func sameBits(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: entry %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// diffPartitioned featurizes every expression with the conjunctive and the
// complex QFT over meta, through the serving code and through the oracles:
// the same vectors, and an error from one exactly when the other errs — with
// the same text as the per-term-vector body's (terms_test.go).
func diffPartitioned(t *testing.T, label string, meta *TableMeta, exprs []sqlparse.Expr) {
	t.Helper()
	for _, attrSel := range []bool{false, true} {
		opts := Options{MaxEntriesPerAttr: 32, AttrSel: attrSel}
		for _, p := range []*partitioned{&NewConjunctive(meta, opts).partitioned, &NewComplex(meta, opts).partitioned} {
			got, want, terms := make([]float64, p.Dim()), make([]float64, p.Dim()), make([]float64, p.Dim())
			for i, expr := range exprs {
				poison(got)
				err := featurizeInto(p, got, expr)
				wantErr := untabulatedFeaturizeInto(p, want, expr)
				termsErr := termsFeaturizeInto(p, terms, expr)
				where := fmt.Sprintf("%s %s attrSel=%v expr %d (%s)", label, p.name, attrSel, i, expr)
				if (err == nil) != (wantErr == nil) || !sameErr(err, termsErr) {
					t.Fatalf("%s: err %v, oracle errs %v and %v", where, err, wantErr, termsErr)
				}
				if err == nil {
					sameBits(t, where, want, got)
					sameBits(t, where, terms, got)
				}
			}
		}
	}
}

// TestBucketsAreBucketRange: the tabulated bounds are BucketRange's, and a
// literal lands in BucketOf's partition, on uniform partitions, explicit
// boundaries, the int64 extremes, a one-value domain and one partition per
// value.
func TestBucketsAreBucketRange(t *testing.T) {
	for name, a := range extremeAttrs() {
		b := tabulate(&a)
		for k := 0; k < a.NEntries; k++ {
			lo, hi := a.BucketRange(k)
			if b.lo(k) != lo || b.his[k] != hi {
				t.Fatalf("%s: partition %d = [%d, %d], BucketRange says [%d, %d]", name, k, b.lo(k), b.his[k], lo, hi)
			}
		}
		for _, v := range domainLiterals(&a, rand.New(rand.NewSource(1)), 200) {
			if v < a.Min || v > a.Max {
				continue
			}
			if got, want := b.of(v), a.BucketOf(v); got != want {
				t.Fatalf("%s: partition of %d = %d, BucketOf says %d", name, v, got, want)
			}
		}
	}
}

// extremeAttrs are the edge-case domains the tabulated bounds must agree
// with the division on. "wide" is wider than a float64 mantissa, so the
// slope only estimates a literal's partition there; BucketOf's product still
// fits in an int64.
func extremeAttrs() map[string]AttrMeta {
	return map[string]AttrMeta{
		"uniform":               {Name: "A", Min: -9, Max: 50, NEntries: 12},
		"bottom of int64":       {Name: "A", Min: math.MinInt64, Max: math.MinInt64 + 999, NEntries: 32},
		"top of int64":          {Name: "A", Min: math.MaxInt64 - 1<<40, Max: math.MaxInt64, NEntries: 32},
		"one value":             {Name: "A", Min: 7, Max: 7, NEntries: 1},
		"one value at the top":  {Name: "A", Min: math.MaxInt64, Max: math.MaxInt64, NEntries: 1},
		"entry per value":       {Name: "A", Min: 100, Max: 131, NEntries: 32},
		"wide":                  {Name: "A", Min: -1 << 56, Max: 1 << 56, NEntries: 32},
		"boundaries":            {Name: "A", Min: 0, Max: 99, NEntries: 4, Boundaries: []int64{9, 19, 49}},
		"boundaries at the top": {Name: "A", Min: math.MaxInt64 - 1000, Max: math.MaxInt64, NEntries: 3, Boundaries: []int64{math.MaxInt64 - 1000, math.MaxInt64 - 1}},
	}
}

// domainLiterals draws n literals around a's domain: its ends and their
// neighbours, every partition edge, the int64 extremes, and random values
// inside.
func domainLiterals(a *AttrMeta, rng *rand.Rand, n int) []int64 {
	near := func(v int64) []int64 {
		out := []int64{v}
		if v > math.MinInt64 {
			out = append(out, v-1)
		}
		if v < math.MaxInt64 {
			out = append(out, v+1)
		}
		return out
	}
	lits := []int64{math.MinInt64, math.MaxInt64}
	lits = append(lits, near(a.Min)...)
	lits = append(lits, near(a.Max)...)
	for k := 0; k < a.NEntries; k++ {
		lo, hi := a.BucketRange(k)
		lits = append(lits, near(lo)...)
		lits = append(lits, near(hi)...)
	}
	for len(lits) < n {
		// A random offset into the domain, without overflowing its size.
		span := uint64(a.Max) - uint64(a.Min)
		off := rng.Uint64()
		if span < math.MaxUint64 {
			off %= span + 1
		}
		lits = append(lits, int64(uint64(a.Min)+off))
	}
	return lits
}

// randomCompound draws a mixed conjunct over attribute attr: a disjunction
// of one to three conjunctions of one to four simple predicates on lits.
func randomCompound(rng *rand.Rand, attr string, lits []int64) sqlparse.Expr {
	ops := []sqlparse.CmpOp{sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe}
	var branches []sqlparse.Expr
	for b := rng.Intn(3); b >= 0; b-- {
		var conj []sqlparse.Expr
		for c := rng.Intn(4); c >= 0; c-- {
			conj = append(conj, &sqlparse.Pred{Attr: attr, Op: ops[rng.Intn(len(ops))], Val: lits[rng.Intn(len(lits))]})
		}
		branches = append(branches, sqlparse.NewAnd(conj...))
	}
	return sqlparse.NewOr(branches...)
}

// TestTabulatedMatchesOracleAtTheEdges: random compound predicates, with
// literals on and around every partition edge and the domain's ends, over
// the edge-case domains — one attribute alone, and all of them in one meta
// with conjuncts spread over them.
func TestTabulatedMatchesOracleAtTheEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var all []AttrMeta
	var names []string
	for name := range extremeAttrs() {
		names = append(names, name)
	}
	slices.Sort(names)
	for i, name := range names {
		a := extremeAttrs()[name]
		meta, err := NewTableMetaFromSpec(MetaSpec{Name: "t", Attrs: []AttrMeta{a}})
		if err != nil {
			t.Fatal(err)
		}
		lits := domainLiterals(&a, rng, 64)
		var exprs []sqlparse.Expr
		for j := 0; j < 400; j++ {
			exprs = append(exprs, randomCompound(rng, "A", lits))
		}
		diffPartitioned(t, name, meta, exprs)
		a.Name = fmt.Sprintf("A%d", i)
		all = append(all, a)
	}
	meta, err := NewTableMetaFromSpec(MetaSpec{Name: "t", Attrs: all})
	if err != nil {
		t.Fatal(err)
	}
	var exprs []sqlparse.Expr
	for j := 0; j < 400; j++ {
		var kids []sqlparse.Expr
		for c := rng.Intn(4); c >= 0; c-- {
			a := &all[rng.Intn(len(all))]
			kids = append(kids, randomCompound(rng, a.Name, domainLiterals(a, rng, 16)))
		}
		exprs = append(exprs, sqlparse.NewAnd(kids...))
	}
	diffPartitioned(t, "all edge domains", meta, exprs)
}

// TestTabulatedMatchesOracleOnWorkloads: the benchmark's generators at its
// shape (mixed and conjunctive, seeds 1-3) over a forest table, under
// uniform, weighted, adaptive and data-driven partitions.
func TestTabulatedMatchesOracleOnWorkloads(t *testing.T) {
	n := 600
	if testing.Short() {
		n = 150
	}
	forest, err := dataset.Forest(dataset.ForestConfig{Rows: 3000, QuantAttrs: 12, BinaryAttrs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	partitioned, err := NewTableMetaPartitioned(forest, 32, equiDepthPartitioner)
	if err != nil {
		t.Fatal(err)
	}
	metas := map[string]*TableMeta{
		"uniform":     NewTableMeta(forest, 32),
		"weighted":    NewTableMetaWeighted(forest, 32),
		"adaptive":    NewTableMetaAdaptive(forest, 16*24, 2),
		"partitioned": partitioned,
	}
	for seed := int64(1); seed <= 3; seed++ {
		conj := workload.ConjConfig{Count: n, MaxAttrs: 8, MaxNotEquals: 5, Seed: seed}
		mixed, err := workload.Mixed(forest, workload.MixedConfig{ConjConfig: conj, MaxBranches: 3})
		if err != nil {
			t.Fatal(err)
		}
		conjunctive, err := workload.Conjunctive(forest, conj)
		if err != nil {
			t.Fatal(err)
		}
		var exprs []sqlparse.Expr
		for _, q := range append(mixed.Queries(), conjunctive.Queries()...) {
			exprs = append(exprs, q.Where)
		}
		for name, meta := range metas {
			diffPartitioned(t, fmt.Sprintf("%s seed %d", name, seed), meta, exprs)
		}
	}
}

// TestWholeWhereMatchesSplit: JOB-light and the join training workload, per
// sub-schema. A one-table query's WHERE, handed to its table's featurizer
// whole, featurizes as the oracles featurize its SplitWhereByTable share; a
// multi-table query's share featurizes as the oracles do.
func TestWholeWhereMatchesSplit(t *testing.T) {
	imdb, err := dataset.IMDB(dataset.IMDBConfig{Titles: 600, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	schema := dataset.IMDBSchema()
	suite, err := workload.JOBLight(imdb, schema, workload.DefaultJOBLightConfig())
	if err != nil {
		t.Fatal(err)
	}
	train, err := workload.JoinTraining(imdb, schema, workload.JoinConfig{Count: 300, MinJoins: 0, MaxJoins: 3, MaxPreds: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxEntriesPerAttr: 32, AttrSel: true}
	feats := map[string]*partitioned{}
	for _, tn := range imdb.TableNames() {
		feats[tn] = &NewComplex(NewTableMeta(imdb.Table(tn), 32), opts).partitioned
	}
	singles := 0
	for i, q := range append(suite.Queries(), train.Queries()...) {
		ands := make([]sqlparse.And, len(q.Tables))
		if err := SplitWhereByTable(q, q.Tables, ands); err != nil {
			t.Fatalf("query %d (%s): %v", i, q, err)
		}
		for j, tn := range q.Tables {
			p := feats[tn]
			want, got := make([]float64, p.Dim()), make([]float64, p.Dim())
			if err := untabulatedFeaturizeInto(p, want, &ands[j]); err != nil {
				t.Fatalf("query %d (%s), table %s: oracle: %v", i, q, tn, err)
			}
			expr := sqlparse.Expr(&ands[j])
			if len(q.Tables) == 1 {
				expr = q.Where
				singles++
			}
			if err := featurizeInto(p, got, expr); err != nil {
				t.Fatalf("query %d (%s), table %s: %v", i, q, tn, err)
			}
			sameBits(t, fmt.Sprintf("query %d (%s), table %s", i, q, tn), want, got)
		}
	}
	if singles == 0 {
		t.Fatal("no one-table query in the corpus")
	}
}

// BenchmarkFeaturizeMixed is featurization alone on the daemon's
// configuration: the complex QFT, 32 entries per attribute with selectivity
// entries, over the benchmark's mixed AND/OR traffic on a 20 000-row forest
// ("mixed"), and over the conjunctive traffic the same generator settings
// draw ("conjunctive"), where every attribute's compound predicate is one
// DNF term.
func BenchmarkFeaturizeMixed(b *testing.B) {
	forest, err := dataset.Forest(dataset.ForestConfig{Rows: 20000, QuantAttrs: 12, BinaryAttrs: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	conj := workload.ConjConfig{Count: 1024, MaxAttrs: 8, MaxNotEquals: 5, Seed: 1_000_004}
	mixed, err := workload.Mixed(forest, workload.MixedConfig{ConjConfig: conj, MaxBranches: 3})
	if err != nil {
		b.Fatal(err)
	}
	conjunctive, err := workload.Conjunctive(forest, conj)
	if err != nil {
		b.Fatal(err)
	}
	f := NewComplex(NewTableMeta(forest, 32), Options{MaxEntriesPerAttr: 32, AttrSel: true})
	dst := make([]float64, f.Dim())
	for _, w := range []struct {
		name string
		qs   []*sqlparse.Query
	}{{"mixed", mixed.Queries()}, {"conjunctive", conjunctive.Queries()}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f.FeaturizeInto(dst, w.qs[i%len(w.qs)].Where); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
