package core

import (
	"fmt"

	"qfe/internal/sqlparse"
)

// Complex is Limited Disjunction Encoding (Section 3.3, Algorithm 2) — to
// the paper's knowledge the first QFT designed for queries containing both
// conjunctions and disjunctions. It supports the mixed-query class of
// Definition 3.3: a conjunction of per-attribute compound predicates, where
// each compound predicate is an arbitrary AND/OR combination of simple
// predicates over a single attribute.
//
// Each compound predicate is normalized into a disjunction of conjunctions
// (DNF); every conjunction is featurized with Universal Conjunction
// Encoding's per-attribute routine (Algorithm 1), and the per-conjunction
// vectors are merged by entry-wise max — additional disjuncts can only make
// a query less selective. Since the per-conjunction vectors converge to
// lossless featurizations (Lemma 3.2) and the max-merge mirrors OR
// semantics, Limited Disjunction Encoding converges to a lossless
// featurization of mixed queries.
//
// On purely conjunctive input the encoding degenerates to Universal
// Conjunction Encoding and produces the identical vector (the reason
// Table 1 omits the "complex" rows for JOB-light).
type Complex struct{ partitioned }

// NewComplex returns Limited Disjunction Encoding over meta; the layout
// matches Universal Conjunction Encoding exactly.
func NewComplex(meta *TableMeta, opts Options) *Complex {
	return &Complex{newPartitioned("complex", meta, opts, nil)}
}

// FeaturizeAttrCompound runs Algorithm 2 for one attribute: the compound
// predicate expr (all of whose simple predicates are taken to reference
// attribute a) is converted to DNF, each disjunct is featurized with
// Algorithm 1, and the per-disjunct vectors are merged entry-wise by max.
//
// The merged selectivity estimate is the sum of the per-disjunct estimates
// clamped to 1 — an upper bound that is exact when the disjuncts cover
// disjoint value ranges, as they do in the paper's mixed workload.
func FeaturizeAttrCompound(a AttrMeta, expr sqlparse.Expr) ([]float64, float64, error) {
	merged := make([]float64, a.NEntries)
	b := tabulate(&a)
	sel, err := compound(&b, expr, merged)
	if err != nil {
		return nil, 0, err
	}
	return merged, sel, nil
}

// compound is FeaturizeAttrCompound over an attribute already tabulated,
// merging into dst (length NEntries, fully overwritten).
func compound(b *buckets, expr sqlparse.Expr, dst []float64) (float64, error) {
	sc := getScratch()
	defer putScratch(sc)
	sc.kids = append(sc.kids[:0], expr)
	return sc.attrCompound(b, sc.kids, dst)
}

// attrCompound is Algorithm 2 for attribute b.a, whose compound predicate is
// the conjunction of kids, merging into dst (length NEntries, fully
// overwritten).
func (sc *scratch) attrCompound(b *buckets, kids []sqlparse.Expr, dst []float64) (float64, error) {
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
	// With frequency weights attached, the merged vector itself gives a
	// sharper disjunction estimate than the clamped per-branch sum.
	if a.Weights != nil {
		mergedSel = weightedSel(a.Weights, dst)
	}
	return mergedSel, nil
}

// maxDNFTerms bounds the disjunction blow-up of a compound predicate, at
// sqlparse.ToDNF's limit: adversarial inputs become errors, not memory.
const maxDNFTerms = 4096

var errDNFTerms = Unsupported(fmt.Errorf("DNF exceeds %d terms", maxDNFTerms))

// dnf appends expr's disjunctive normal form to the term arena, in the order
// sqlparse.ToDNF enumerates it (the merged selectivity is a float sum, so
// term order is part of the encoding): sc.terms grows by exactly expr's
// terms, each a span of sc.preds.
func (sc *scratch) dnf(expr sqlparse.Expr) error {
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

// dnfAnd is dnf for the conjunction of kids. The kids that are simple
// predicates form the stem shared by every term; each remaining kid
// multiplies the terms so far by its own, earlier kids varying slowest.
func (sc *scratch) dnfAnd(kids []sqlparse.Expr) error {
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
		out := len(sc.terms) // terms[base:out]: the product so far
		if err := sc.dnf(k); err != nil {
			return err
		}
		sub := len(sc.terms) // terms[out:sub]: k's terms
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
		// Slide the new product down over the two factors it replaces.
		sc.terms = sc.terms[:base+copy(sc.terms[base:], sc.terms[sub:])]
	}
	return nil
}
