package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// The oracle of the interval form: the partitioned featurizers' body as it
// was before Algorithms 1 and 2 were folded over partition intervals. Each
// attribute's compound predicate was enumerated as DNF terms into an arena of
// predicate copies (every term held its own copy of the stem and of each
// factor's predicates), and every term ran Algorithm 1 on a partition vector
// of its own — each predicate rewriting the entries it excludes — before the
// term vector was max-merged into the block. It is kept, apart from the names,
// as it served, as the ground truth the interval form is compared against:
// vectors and selectivities bit for bit, error texts byte for byte.

// termScratch is the workspace of the replaced body.
type termScratch struct {
	preds []*sqlparse.Pred // the predicates of all DNF terms, term after term
	terms []span           // each DNF term as a span of preds
	nots  []int64          // one term's not-equal literals
	part  []float64        // one term's partition vector, before the max-merge
}

// termsFeaturizeInto is partitioned.FeaturizeInto over the replaced body,
// after the by-name grouping walk.
func termsFeaturizeInto(p *partitioned, dst []float64, expr sqlparse.Expr) error {
	if err := checkDst(p.name, dst, p.Dim()); err != nil {
		return err
	}
	sc, ts := new(scratch), new(termScratch)
	if err := byNameGroup(sc, p.name, p.meta, expr, p.orErr); err != nil {
		return err
	}
	for ai := range p.bounds {
		b := &p.bounds[ai]
		a := b.a
		off := p.offsets[ai]
		block := dst[off : off+a.NEntries]
		sel := 1.0
		if p.orErr == nil && sc.head[ai] < 0 {
			fill(block, 1)
		} else {
			var err error
			if sel, err = ts.attrCompound(b, sc.attrKids(ai), block); err != nil {
				return err
			}
		}
		if p.opts.AttrSel {
			dst[off+a.NEntries] = sel
		}
	}
	return nil
}

// termsAttrCompound is FeaturizeAttrCompound over the replaced body.
func termsAttrCompound(a AttrMeta, expr sqlparse.Expr) ([]float64, float64, error) {
	merged := make([]float64, a.NEntries)
	b := tabulate(&a)
	sel, err := new(termScratch).attrCompound(&b, []sqlparse.Expr{expr}, merged)
	if err != nil {
		return nil, 0, err
	}
	return merged, sel, nil
}

// termsAttrConjunction is FeaturizeAttrConjunction over the replaced body.
func termsAttrConjunction(a AttrMeta, preds []*sqlparse.Pred) ([]float64, float64, error) {
	vec := make([]float64, a.NEntries)
	b := tabulate(&a)
	sel, err := new(termScratch).attrConjunction(&b, preds, vec)
	if err != nil {
		return nil, 0, err
	}
	return vec, sel, nil
}

func (sc *termScratch) attrCompound(b *buckets, kids []sqlparse.Expr, dst []float64) (float64, error) {
	a := b.a
	sc.preds, sc.terms = sc.preds[:0], sc.terms[:0]
	if err := sc.dnfAnd(kids); err != nil {
		return 0, fmt.Errorf("core/complex: attribute %q: %w", a.Name, err)
	}
	if cap(sc.part) < a.NEntries {
		sc.part = make([]float64, a.NEntries)
	}
	part := sc.part[:a.NEntries]
	fill(dst, 0) // all-zero (Algorithm 2, line 3)
	var mergedSel float64
	for _, t := range sc.terms {
		sel, err := sc.attrConjunction(b, sc.preds[t.lo:t.hi], part)
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

func (sc *termScratch) dnf(expr sqlparse.Expr) error {
	switch n := expr.(type) {
	case *sqlparse.Pred:
		sc.preds = append(sc.preds, n)
		sc.terms = append(sc.terms, span{int32(len(sc.preds) - 1), int32(len(sc.preds))})
	case *sqlparse.And:
		return sc.dnfAnd(n.Kids)
	case *sqlparse.Or:
		base := len(sc.terms)
		for _, k := range n.Kids {
			if err := sc.dnf(k); err != nil {
				return err
			}
			if len(sc.terms)-base > maxDNFTerms {
				return errDNFTerms
			}
		}
	}
	return nil
}

func (sc *termScratch) dnfAnd(kids []sqlparse.Expr) error {
	base := len(sc.terms)
	stem := int32(len(sc.preds))
	for _, k := range kids {
		if p, ok := k.(*sqlparse.Pred); ok {
			sc.preds = append(sc.preds, p)
		}
	}
	sc.terms = append(sc.terms, span{stem, int32(len(sc.preds))})
	for _, k := range kids {
		if _, ok := k.(*sqlparse.Pred); ok {
			continue
		}
		out := len(sc.terms)
		if err := sc.dnf(k); err != nil {
			return err
		}
		sub := len(sc.terms)
		if (out-base)*(sub-out) > maxDNFTerms {
			return errDNFTerms
		}
		for _, a := range sc.terms[base:out] {
			for _, b := range sc.terms[out:sub] {
				lo := int32(len(sc.preds))
				sc.preds = append(sc.preds, sc.preds[a.lo:a.hi]...)
				sc.preds = append(sc.preds, sc.preds[b.lo:b.hi]...)
				sc.terms = append(sc.terms, span{lo, int32(len(sc.preds))})
			}
		}
		sc.terms = sc.terms[:base+copy(sc.terms[base:], sc.terms[sub:])]
	}
	return nil
}

func (sc *termScratch) attrConjunction(b *buckets, preds []*sqlparse.Pred, vec []float64) (float64, error) {
	a := b.a
	fill(vec, 1)
	minA, maxA := a.Min, a.Max
	sc.nots = sc.nots[:0]
	for _, p := range preds {
		if p.Str != nil {
			return 0, fmt.Errorf("core: unbound string predicate %s", p)
		}
		val := p.Val
		inRange := val >= a.Min && val <= a.Max
		switch p.Op {
		case sqlparse.OpEq:
			if !inRange {
				fill(vec, 0)
				minA, maxA = 1, 0
				continue
			}
			idx := b.of(val)
			fill(vec[:idx], 0)
			fill(vec[idx+1:], 0)
			if b.lo(idx) != b.his[idx] {
				markSplit(vec, idx)
			}
			minA, maxA = max(minA, val), min(maxA, val)
		case sqlparse.OpNe:
			if inRange {
				if idx := b.of(val); b.lo(idx) == b.his[idx] {
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
				bIdx := b.of(bound)
				fill(vec[:bIdx], 0)
				if bound != b.lo(bIdx) {
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
				bIdx := b.of(bound)
				fill(vec[bIdx+1:], 0)
				if bound != b.his[bIdx] {
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

func fill(vec []float64, v float64) {
	for i := range vec {
		vec[i] = v
	}
}

// markSplit lowers entry idx to ½ unless a previous predicate already
// zeroed it: entries only ever decrease (Algorithm 1, line 5).
func markSplit(vec []float64, idx int) {
	if vec[idx] == 1 {
		vec[idx] = 0.5
	}
}

// sameErr reports whether two errors are both nil or carry the same text.
func sameErr(err, want error) bool {
	if err == nil || want == nil {
		return err == nil && want == nil
	}
	return err.Error() == want.Error()
}

// TestIntervalsMatchOracleAtTheEdges: random compound predicates with
// literals on and around every partition edge, and conjunctions of many
// repeated <> literals, over the edge-case domains with and without weights —
// through both QFTs, and through FeaturizeAttrCompound and
// FeaturizeAttrConjunction, selectivities included. (diffPartitioned holds
// the benchmark's generators to this oracle too.)
func TestIntervalsMatchOracleAtTheEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	attrs := edgeAttrs()
	for _, name := range sortedNames(attrs) {
		a := attrs[name]
		meta, err := NewTableMetaFromSpec(MetaSpec{Name: "t", Attrs: []AttrMeta{a}})
		if err != nil {
			t.Fatal(err)
		}
		lits := domainLiterals(&a, rng, 64)
		var exprs []sqlparse.Expr
		for j := 0; j < 300; j++ {
			exprs = append(exprs, randomCompound(rng, "A", lits))
		}
		for j := 0; j < 40; j++ {
			// Nine or more <> literals, repeats among them: a term's
			// selectivity counts each value once.
			var kids []sqlparse.Expr
			for c := 9 + rng.Intn(12); c > 0; c-- {
				kids = append(kids, &sqlparse.Pred{Attr: "A", Op: sqlparse.OpNe, Val: lits[rng.Intn(8+j)]})
			}
			exprs = append(exprs, sqlparse.NewOr(sqlparse.NewAnd(append(kids, randomCompound(rng, "A", lits))...), randomCompound(rng, "A", lits)))
		}
		for _, expr := range exprs {
			gotVec, gotSel, err := FeaturizeAttrCompound(a, expr)
			wantVec, wantSel, wantErr := termsAttrCompound(a, expr)
			if !sameErr(err, wantErr) {
				t.Fatalf("%s: compound %s: err %v, oracle err %v", name, expr, err, wantErr)
			}
			sameBits(t, fmt.Sprintf("%s: compound %s", name, expr), append(wantVec, wantSel), append(gotVec, gotSel))
			preds := sqlparse.CollectPreds(expr)
			gotVec, gotSel, err = FeaturizeAttrConjunction(a, preds)
			wantVec, wantSel, wantErr = termsAttrConjunction(a, preds)
			if !sameErr(err, wantErr) {
				t.Fatalf("%s: conjunction of %s: err %v, oracle err %v", name, expr, err, wantErr)
			}
			sameBits(t, fmt.Sprintf("%s: conjunction of %s", name, expr), append(wantVec, wantSel), append(gotVec, gotSel))
		}
		diffPartitioned(t, name, meta, exprs)
	}
}

// TestIntervalErrorsMatchOracle: where a compound predicate holds two
// faults, the interval form reports the one the replaced body reported — a
// DNF past the term bound before any predicate Algorithm 1 refuses, and of
// those the first in the first term that holds one, in the term's predicate
// order (its stem before the factors), attributes in schema order.
func TestIntervalErrorsMatchOracle(t *testing.T) {
	meta := NewTableMetaFromAttrs("t", []AttrMeta{{Name: "a", Min: 0, Max: 99}, {Name: "b", Min: -50, Max: 49}}, 10)
	str := "x"
	p := func(attr string, op sqlparse.CmpOp, v int64) *sqlparse.Pred {
		return &sqlparse.Pred{Attr: attr, Op: op, Val: v}
	}
	bad := func(attr string, v int64) *sqlparse.Pred { return p(attr, sqlparse.CmpOp(40+v), v) }
	wide := func(attr string, n int) sqlparse.Expr { // a conjunction of n two-way disjunctions: 2^n terms
		var kids []sqlparse.Expr
		for i := 0; i < n; i++ {
			kids = append(kids, sqlparse.NewOr(p(attr, sqlparse.OpGe, int64(i)), p(attr, sqlparse.OpLe, int64(40-i))))
		}
		return &sqlparse.And{Kids: kids}
	}
	and := func(kids ...sqlparse.Expr) sqlparse.Expr { return &sqlparse.And{Kids: kids} }
	or := func(kids ...sqlparse.Expr) sqlparse.Expr { return &sqlparse.Or{Kids: kids} }
	exprs := []sqlparse.Expr{
		and(or(p("a", sqlparse.OpEq, 1), bad("a", 1)), bad("a", 2)),
		or(and(p("a", sqlparse.OpGe, 3), bad("a", 1)), and(bad("a", 2), p("a", sqlparse.OpLe, 5))),
		and(or(p("a", sqlparse.OpEq, 1), p("a", sqlparse.OpEq, 2)), or(bad("a", 1), p("a", sqlparse.OpEq, 3)), or(p("a", sqlparse.OpNe, 4), bad("a", 2))),
		and(or(p("a", sqlparse.OpEq, 1), bad("a", 1)), or(bad("a", 2), p("a", sqlparse.OpEq, 3))),
		and(bad("a", 1), wide("a", 13)),
		and(wide("a", 13), bad("a", 1)),
		and(bad("b", 1), bad("a", 2)),
		and(bad("b", 1), wide("a", 13)),
		and(bad("a", 1), wide("b", 13)),
		and(or(and(bad("a", 3), or()), p("a", sqlparse.OpEq, 5)), bad("a", 4)),
		and(or(and(bad("a", 3), or()), p("a", sqlparse.OpEq, 5))),
	}
	diffPartitioned(t, "two faults", meta, exprs)
	// The per-attribute form admits what the grouping walk would have refused:
	// string literals nobody bound, beside unknown operators.
	s := &sqlparse.Pred{Attr: "a", Op: sqlparse.OpEq, Str: &str}
	for i, expr := range append(exprs[:4:4],
		and(or(p("a", sqlparse.OpEq, 1), s), bad("a", 2)),
		and(or(p("a", sqlparse.OpEq, 1), bad("a", 2)), s),
		or(and(s, bad("a", 1)), and(bad("a", 2), s)),
	) {
		_, _, err := FeaturizeAttrCompound(meta.Attrs[0], expr)
		_, _, wantErr := termsAttrCompound(meta.Attrs[0], expr)
		if err == nil || !sameErr(err, wantErr) {
			t.Fatalf("expr %d (%s): err %v, oracle err %v", i, expr, err, wantErr)
		}
		preds := sqlparse.CollectPreds(expr)
		_, _, err = FeaturizeAttrConjunction(meta.Attrs[0], preds)
		_, _, wantErr = termsAttrConjunction(meta.Attrs[0], preds)
		if err == nil || !sameErr(err, wantErr) {
			t.Fatalf("conjunction of expr %d (%s): err %v, oracle err %v", i, expr, err, wantErr)
		}
	}
}

// TestScratchKeepBoundsEverySlice: keep pools a scratch whose every slice
// holds at most maxPooled elements, and
// refuses one any of them grew past it — a WHERE of tens of thousands of
// conjuncts inflates the grouping's slices, not only the term arenas.
func TestScratchKeepBoundsEverySlice(t *testing.T) {
	typ := reflect.TypeOf(scratch{})
	slicesSeen := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Slice {
			continue
		}
		slicesSeen++
		for _, n := range []int{maxPooled, maxPooled + 1} {
			sc := new(scratch)
			field := reflect.NewAt(f.Type, unsafe.Add(unsafe.Pointer(sc), f.Offset)).Elem()
			field.Set(reflect.MakeSlice(f.Type, 0, n))
			if got, want := sc.keep(), n <= maxPooled; got != want {
				t.Errorf("scratch.%s at capacity %d: keep() = %v, want %v", f.Name, n, got, want)
			}
		}
	}
	if slicesSeen < 8 {
		t.Fatalf("only %d slice fields seen in scratch", slicesSeen)
	}
}

// fuzzMeta is FuzzFeaturize's schema: a uniform, a weighted, a one-value
// attribute, one at each end of int64 and one partitioned by explicit
// boundaries.
func fuzzMeta() *TableMeta {
	attrs := []AttrMeta{
		{Name: "u", Min: -9, Max: 990, NEntries: 32},
		weightedAttr(AttrMeta{Name: "w", Min: 0, Max: 99, NEntries: 16}),
		{Name: "o", Min: 7, Max: 7, NEntries: 1},
		{Name: "lo", Min: math.MinInt64, Max: math.MinInt64 + 999, NEntries: 32},
		{Name: "hi", Min: math.MaxInt64 - 1<<40, Max: math.MaxInt64, NEntries: 32},
		{Name: "b", Min: 0, Max: 99, NEntries: 4, Boundaries: []int64{9, 19, 49}},
	}
	meta, err := NewTableMetaFromSpec(MetaSpec{Name: "t", Attrs: attrs})
	if err != nil {
		panic(err)
	}
	return meta
}

// fuzzDB holds a table t with fuzzMeta's columns, in its order, to bind the
// fuzzed queries against.
func fuzzDB() *table.DB {
	t := table.New("t")
	for _, a := range fuzzMeta().Attrs {
		t.MustAddColumn(table.NewColumn(a.Name, []int64{0}))
	}
	db := table.NewDB()
	db.MustAdd(t)
	return db
}

// FuzzFeaturize parses fuzzed WHERE text over fuzzMeta's schema, binds it
// (exec.Bind) and featurizes whatever parses with both QFTs, selectivity
// entries on: each must agree with the by-name oracle (byNameFeaturizeInto)
// on every vector and selectivity bit, or on the error text, and the
// interval form also with the replaced body (termsFeaturizeInto). A text
// Bind refuses — an unknown name, another table's — is stamped by name
// instead, as a table with more columns would stamp it, so the featurizers'
// own refusals stay fuzzed. Run the corpus as a normal test, or explore
// with `go test -fuzz=FuzzFeaturize ./internal/core`.
func FuzzFeaturize(f *testing.F) {
	for _, s := range []string{
		"u >= 10",
		"u >= 10 AND u <= 500 AND u <> 32 AND u <> 33",
		"(u = 1 OR u = 2) AND (u <> 3 OR u < 0)",
		"(w >= 5 AND w < 60 AND w <> 7) OR (w > 80) OR w = 99",
		"o = 7 OR o <> 7 OR o > 6",
		"lo < -9223372036854775808 OR lo >= -9223372036854775000",
		"hi > 9223372036854775807 OR (hi >= 9223372036854775000 AND hi <> 9223372036854775806)",
		"b > 9 AND b <= 19 OR b = 50 AND b <> 51",
		"(u > 5 OR u < 3) AND (u > 6 OR u < 2) AND (w = 1 OR o = 7)",
		"z = 1",
		"u = 'x'",
		"u = 5 AND t.w <= 40 AND other.u > 3",
	} {
		f.Add(s)
	}
	meta, db := fuzzMeta(), fuzzDB()
	meta.MapColumns(db.Table("t"))
	opts := Options{MaxEntriesPerAttr: 32, AttrSel: true}
	feats := []*partitioned{&NewConjunctive(meta, opts).partitioned, &NewComplex(meta, opts).partitioned}
	f.Fuzz(func(t *testing.T, where string) {
		q, err := sqlparse.Parse("SELECT count(*) FROM t WHERE " + where)
		if err != nil {
			return
		}
		if exec.Bind(q, db) != nil {
			stampByName(meta, q.Where)
		}
		for _, f := range allQFTs(meta) {
			diffByName(t, fmt.Sprintf("%q", where), f, []sqlparse.Expr{q.Where})
		}
		for _, p := range feats {
			got, want := make([]float64, p.Dim()), make([]float64, p.Dim())
			poison(got)
			err := p.FeaturizeInto(got, q.Where)
			wantErr := termsFeaturizeInto(p, want, q.Where)
			if !sameErr(err, wantErr) {
				t.Fatalf("%s %q: err %v, oracle err %v", p.name, where, err, wantErr)
			}
			if err == nil {
				sameBits(t, fmt.Sprintf("%s %q", p.name, where), want, got)
			}
		}
	})
}
