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
	return sc.attrCompound(b, nil, -1, sc.kids, dst)
}

// attrCompound is Algorithm 2 for attribute b.a, whose compound predicate is
// the conjunction of kids, writing into dst (length NEntries, fully
// overwritten). The DNF terms are folded in interval form as the walk meets
// them: each literal is placed once, where it appears, and a product term is
// the meet of two terms. When ai >= 0, b.a is meta's attribute ai, and a
// predicate over any other stops the fold with errMixed.
func (sc *scratch) attrCompound(b *buckets, meta *TableMeta, ai int, kids []sqlparse.Expr, dst []float64) (float64, error) {
	a := b.a
	sc.meta, sc.ai = meta, ai
	sc.terms, sc.nes = sc.terms[:0], sc.nes[:0]
	if err := sc.dnfAnd(b, kids, false); err != nil {
		return 0, fmt.Errorf("core/complex: attribute %q: %w", a.Name, err)
	}
	terms := sc.terms
	for i := range terms {
		if err := terms[i].bad; err != nil {
			return 0, err
		}
	}
	clear(dst) // all-zero (Algorithm 2, line 3)
	for i := range terms {
		sc.merge(dst, &terms[i])
	}
	// With frequency weights attached, the merged vector itself gives a
	// sharper disjunction estimate than the clamped per-branch sum.
	if a.Weights != nil {
		return weightedSel(a.Weights, dst), nil
	}
	var mergedSel float64
	for i := range terms {
		mergedSel += sc.sel(a, &terms[i])
	}
	if mergedSel > 1 {
		mergedSel = 1
	}
	return mergedSel, nil
}

// maxDNFTerms bounds the disjunction blow-up of a compound predicate, at
// sqlparse.ToDNF's limit: adversarial inputs become errors, not memory.
const maxDNFTerms = 4096

var errDNFTerms = Unsupported(fmt.Errorf("DNF exceeds %d terms", maxDNFTerms))

// dnf appends expr's disjunctive normal form to sc.terms, in the order
// sqlparse.ToDNF enumerates it (the merged selectivity is a float sum, so
// term order is part of the encoding): sc.terms grows by exactly expr's
// terms.
func (sc *scratch) dnf(b *buckets, expr sqlparse.Expr) error {
	switch n := expr.(type) {
	case *sqlparse.Pred:
		if !sc.owns(n) {
			return errMixed
		}
		t := whole(b)
		sc.and(b, &t, n)
		sc.terms = append(sc.terms, t)
	case *sqlparse.And:
		return sc.dnfAnd(b, n.Kids, true)
	case *sqlparse.Or:
		base := len(sc.terms)
		for _, k := range n.Kids {
			if err := sc.dnf(b, k); err != nil {
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
// predicates narrow the stem shared by every term; each remaining kid
// multiplies the terms so far by its own, earlier kids varying slowest.
// Unless nested is set, kids are an attribute's conjuncts, chained to it by
// the grouping, and its simple predicates are not checked again.
func (sc *scratch) dnfAnd(b *buckets, kids []sqlparse.Expr, nested bool) error {
	base := len(sc.terms)
	stem := whole(b)
	for _, k := range kids {
		if p, ok := k.(*sqlparse.Pred); ok {
			if nested && !sc.owns(p) {
				return errMixed
			}
			sc.and(b, &stem, p)
		}
	}
	sc.terms = append(sc.terms, stem)
	for _, k := range kids {
		if _, ok := k.(*sqlparse.Pred); ok {
			continue
		}
		out := len(sc.terms) // terms[base:out]: the product so far
		if err := sc.dnf(b, k); err != nil {
			return err
		}
		sub := len(sc.terms) // terms[out:sub]: k's terms
		if (out-base)*(sub-out) > maxDNFTerms {
			return errDNFTerms
		}
		for i := base; i < out; i++ {
			for j := out; j < sub; j++ {
				sc.terms = append(sc.terms, sc.meet(&sc.terms[i], &sc.terms[j]))
			}
		}
		// Slide the new product down over the two factors it replaces.
		sc.terms = sc.terms[:base+copy(sc.terms[base:], sc.terms[sub:])]
	}
	return nil
}
