package core

import (
	"errors"

	"qfe/internal/sqlparse"
)

// Simple is Singular Predicate Encoding (Section 2.1.1), the established
// baseline QFT of [7, 32]. The feature vector has 4·m entries for a table
// with m attributes: per attribute, a 3-entry binary operator vector over
// {=, >, <} followed by the [0,1]-normalized literal. Entries of attributes
// without predicates are all zero.
//
// The encoding is lossless only for queries with at most one predicate per
// attribute (Section 3 shows the failure mode for k > 1): when a query
// carries several predicates on the same attribute, only the first is
// represented and the rest are silently dropped — exactly the information
// loss the paper measures. Disjunctions are not supported at all.
type Simple struct {
	meta *TableMeta
}

// NewSimple returns Singular Predicate Encoding over meta.
func NewSimple(meta *TableMeta) *Simple { return &Simple{meta: meta} }

// Name implements Featurizer.
func (s *Simple) Name() string { return "simple" }

// Dim implements Featurizer: 4 entries per attribute.
func (s *Simple) Dim() int { return 4 * s.meta.NumAttrs() }

// Featurize implements Featurizer. expr must be conjunctive; the first
// predicate per attribute wins, later ones are dropped (the paper's
// described information loss, not an error). Non-strict and negated
// operators are projected onto the 3-entry {=, >, <} vector: >= sets both =
// and >, <= sets both = and <, <> sets > and < ("at most two entries can be
// meaningfully set").
func (s *Simple) Featurize(expr sqlparse.Expr) ([]float64, error) {
	vec := make([]float64, s.Dim())
	if err := s.FeaturizeInto(vec, expr); err != nil {
		return nil, err
	}
	return vec, nil
}

var errSimpleOr = Unsupported(errors.New("core/simple: disjunctions are not supported by Singular Predicate Encoding"))

// FeaturizeInto implements Featurizer: attribute ai owns dst[4*ai : 4*ai+4].
func (s *Simple) FeaturizeInto(dst []float64, expr sqlparse.Expr) error {
	if err := checkDst("simple", dst, s.Dim()); err != nil {
		return err
	}
	sc := getScratch()
	defer putScratch(sc)
	if err := sc.group("simple", s.meta, expr, errSimpleOr, false); err != nil {
		return err
	}
	clear(dst)
	for ai := range s.meta.Attrs {
		first := sc.head[ai]
		if first < 0 {
			continue
		}
		// Information loss: only one predicate per attribute fits.
		p := sc.conj[first].(*sqlparse.Pred)
		block := dst[4*ai : 4*ai+4]
		block[0], block[1], block[2] = opBits(p.Op)
		block[3] = s.meta.Attrs[ai].Normalize(p.Val)
	}
	return nil
}

// opBits projects a comparison operator onto the {=, >, <} indicator bits.
func opBits(op sqlparse.CmpOp) (eq, gt, lt float64) {
	switch op {
	case sqlparse.OpEq:
		return 1, 0, 0
	case sqlparse.OpGt:
		return 0, 1, 0
	case sqlparse.OpLt:
		return 0, 0, 1
	case sqlparse.OpGe:
		return 1, 1, 0
	case sqlparse.OpLe:
		return 1, 0, 1
	case sqlparse.OpNe:
		return 0, 1, 1
	}
	return 0, 0, 0
}
