package core

import (
	"errors"
	"math"

	"qfe/internal/sqlparse"
)

// Range is Range Predicate Encoding (Section 3.1). It builds on the
// observation that every point or range predicate can be rewritten into a
// closed range: A = 5 becomes [5, 5], A <= 5 becomes [min(A), 5], and for
// integer attributes the strict A < 5 becomes [min(A), 4]. Each attribute
// contributes two entries, the [0,1]-normalized lower and upper bound of its
// range; an attribute without predicates contributes the full range [0, 1].
//
// The encoding is lossless for queries with up to one equality, open-range,
// or closed-range predicate per attribute. Several range predicates on one
// attribute still intersect to one representable closed range, but
// not-equal predicates cannot be represented and are dropped — the
// information loss behind the 99%-quantile spike at three predicates in
// Figure 3. Disjunctions are not supported.
type Range struct {
	meta *TableMeta
}

// NewRange returns Range Predicate Encoding over meta.
func NewRange(meta *TableMeta) *Range { return &Range{meta: meta} }

// Name implements Featurizer.
func (r *Range) Name() string { return "range" }

// Dim implements Featurizer: 2 entries (normalized lo, hi) per attribute.
func (r *Range) Dim() int { return 2 * r.meta.NumAttrs() }

// Featurize implements Featurizer. expr must be conjunctive.
func (r *Range) Featurize(expr sqlparse.Expr) ([]float64, error) {
	vec := make([]float64, r.Dim())
	if err := r.FeaturizeInto(vec, expr); err != nil {
		return nil, err
	}
	return vec, nil
}

var errRangeOr = Unsupported(errors.New("core/range: disjunctions are not supported by Range Predicate Encoding"))

// FeaturizeInto implements Featurizer: attribute i owns dst[2*i : 2*i+2].
func (r *Range) FeaturizeInto(dst []float64, expr sqlparse.Expr) error {
	if err := checkDst("range", dst, r.Dim()); err != nil {
		return err
	}
	sc := getScratch()
	defer putScratch(sc)
	if err := sc.group("range", r.meta, expr, errRangeOr, false); err != nil {
		return err
	}
	for i, a := range r.meta.Attrs {
		dst[2*i], dst[2*i+1] = FeaturizeAttrRange(a, sc.attrPreds(i))
	}
	return nil
}

// FeaturizeAttrRange intersects the conjunction of preds on attribute a into
// one closed range and returns its [0,1]-normalized bounds. Attributes
// without predicates yield the full range [0, 1]; an unsatisfiable
// intersection yields the inverted marker [1, 0] so the model can
// distinguish it from a point query. Not-equal predicates are dropped — the
// encoding's documented information loss.
func FeaturizeAttrRange(a AttrMeta, preds []*sqlparse.Pred) (lo, hi float64) {
	cl, ch := a.Min, a.Max
	for _, p := range preds {
		l, h, ok := closedRange(p.Op, p.Val)
		if !ok {
			continue // <>: not representable as a closed range — dropped
		}
		// Intersect with the range accumulated so far: further conjuncts
		// can only narrow the query.
		if l > cl {
			cl = l
		}
		if h < ch {
			ch = h
		}
	}
	if cl > ch {
		return 1, 0
	}
	return a.Normalize(cl), a.Normalize(ch)
}

// closedRange rewrites "op val" into the closed interval [lo, hi] of
// qualifying values, using integer-domain semantics for strict operators
// (Section 3.1). The third result is false for operators that have no
// closed-range equivalent (<>).
func closedRange(op sqlparse.CmpOp, val int64) (lo, hi int64, ok bool) {
	const (
		negInf = int64(-1) << 62
		posInf = int64(1) << 62
	)
	switch op {
	case sqlparse.OpEq:
		return val, val, true
	case sqlparse.OpLt:
		if val == math.MinInt64 {
			return posInf, negInf, true // nothing precedes the smallest integer
		}
		return negInf, val - 1, true
	case sqlparse.OpLe:
		return negInf, val, true
	case sqlparse.OpGt:
		if val == math.MaxInt64 {
			return posInf, negInf, true // nothing exceeds the largest integer
		}
		return val + 1, posInf, true
	case sqlparse.OpGe:
		return val, posInf, true
	case sqlparse.OpNe:
		return 0, 0, false
	}
	return 0, 0, false
}
