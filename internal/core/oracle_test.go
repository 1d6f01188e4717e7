package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"qfe/internal/sqlparse"
)

// The differential oracles: the allocating implementations that served
// Featurize, SplitWhereByTable and the canonical renderer before the scratch-based
// walks replaced them, kept as the ground truth the new code is compared
// against (vectors bit for bit, canonical forms byte for byte).
// They go through the generic sqlparse analyses — CompoundPredicates, ToDNF,
// a per-attribute grouping of CollectPreds — and build maps, nested slices and strings per call, which
// is exactly why they no longer serve queries.
//
// Two known defects are part of the record and excluded from the
// differential corpora: grouping by attribute *spelling* loses a predicate
// when one attribute is written both bare and table-qualified, and strict
// comparisons against the int64 extremes wrap.

func oracleFeaturize(f Featurizer, expr sqlparse.Expr) ([]float64, error) {
	switch f := f.(type) {
	case *Conjunctive:
		return oracleConjunctive(f, expr)
	case *Complex:
		return oracleComplex(f, expr)
	}
	return nil, fmt.Errorf("no oracle for %T", f)
}

func oracleConjunctive(c *Conjunctive, expr sqlparse.Expr) ([]float64, error) {
	if !sqlparse.IsConjunctive(expr) {
		return nil, fmt.Errorf("core/conjunctive: disjunctions require Limited Disjunction Encoding")
	}
	perAttr := predsPerAttr(expr)
	if err := oracleCheckKnownAttrs(c.meta, perAttr); err != nil {
		return nil, fmt.Errorf("core/conjunctive: %w", err)
	}
	vec := make([]float64, 0, c.Dim())
	for _, a := range c.meta.Attrs {
		av := make([]float64, a.NEntries)
		sel, err := oracleAttrConjunction(a, oraclePredsFor(perAttr, c.meta, a), av)
		if err != nil {
			return nil, err
		}
		vec = append(vec, av...)
		if c.opts.AttrSel {
			vec = append(vec, sel)
		}
	}
	return vec, nil
}

// predsPerAttr groups the simple predicates of a conjunctive expr by
// attribute, in order of appearance.
func predsPerAttr(expr sqlparse.Expr) map[string][]*sqlparse.Pred {
	out := make(map[string][]*sqlparse.Pred)
	for _, p := range sqlparse.CollectPreds(expr) {
		out[p.Attr] = append(out[p.Attr], p)
	}
	return out
}

func oraclePredsFor(perAttr map[string][]*sqlparse.Pred, meta *TableMeta, a AttrMeta) []*sqlparse.Pred {
	if ps, ok := perAttr[a.Name]; ok {
		return ps
	}
	return perAttr[meta.Name+"."+a.Name]
}

func oracleCheckKnownAttrs(meta *TableMeta, perAttr map[string][]*sqlparse.Pred) error {
	for name, ps := range perAttr {
		if meta.AttrIndex(name) < 0 {
			return fmt.Errorf("unknown attribute %q", name)
		}
		for _, p := range ps {
			if p.Str != nil {
				return fmt.Errorf("unbound string predicate %s", p)
			}
		}
	}
	return nil
}

func oracleComplex(c *Complex, expr sqlparse.Expr) ([]float64, error) {
	compounds, err := sqlparse.CompoundPredicates(expr)
	if err != nil {
		return nil, fmt.Errorf("core/complex: %w", err)
	}
	byAttr := make(map[int]sqlparse.Expr, len(compounds))
	for _, cp := range compounds {
		ai := c.meta.AttrIndex(cp.Attr)
		if ai < 0 {
			return nil, fmt.Errorf("core/complex: unknown attribute %q", cp.Attr)
		}
		byAttr[ai] = cp.Expr
	}
	vec := make([]float64, 0, c.Dim())
	for ai, a := range c.meta.Attrs {
		cpExpr, has := byAttr[ai]
		if !has {
			for i := 0; i < a.NEntries; i++ {
				vec = append(vec, 1)
			}
			if c.opts.AttrSel {
				vec = append(vec, 1)
			}
			continue
		}
		av, sel, err := oracleAttrCompound(a, cpExpr)
		if err != nil {
			return nil, err
		}
		vec = append(vec, av...)
		if c.opts.AttrSel {
			vec = append(vec, sel)
		}
	}
	return vec, nil
}

// oracleAttrCompound is Algorithm 2 over sqlparse.ToDNF's nested slices.
func oracleAttrCompound(a AttrMeta, expr sqlparse.Expr) ([]float64, float64, error) {
	dnf, err := sqlparse.ToDNF(expr)
	if err != nil {
		return nil, 0, fmt.Errorf("core/complex: attribute %q: %w", a.Name, err)
	}
	dst := make([]float64, a.NEntries)
	scratch := make([]float64, a.NEntries)
	var mergedSel float64
	for _, conj := range dnf {
		sel, err := oracleAttrConjunction(a, conj, scratch)
		if err != nil {
			return nil, 0, err
		}
		for i, v := range scratch {
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
	return dst, mergedSel, nil
}

// oracleAttrConjunction is Algorithm 1 with per-call closures and the
// not-equal set in a map.
func oracleAttrConjunction(a AttrMeta, preds []*sqlparse.Pred, vec []float64) (float64, error) {
	for i := range vec {
		vec[i] = 1
	}
	minA, maxA := a.Min, a.Max
	var nots map[int64]struct{}
	markSplit := func(idx int) {
		if vec[idx] == 1 {
			vec[idx] = 0.5
		}
	}
	zero := func(from, to int) {
		if from < 0 {
			from = 0
		}
		if to > len(vec) {
			to = len(vec)
		}
		for i := from; i < to; i++ {
			vec[i] = 0
		}
	}
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
				zero(0, a.NEntries)
				minA, maxA = 1, 0
				continue
			}
			zero(0, idx)
			zero(idx+1, a.NEntries)
			if lo != hi {
				markSplit(idx)
			}
			if val > minA {
				minA = val
			}
			if val < maxA {
				maxA = val
			}
		case sqlparse.OpNe:
			if inRange {
				if lo == hi {
					vec[idx] = 0
				} else {
					markSplit(idx)
				}
			}
			if nots == nil {
				nots = make(map[int64]struct{})
			}
			nots[val] = struct{}{}
		case sqlparse.OpGt, sqlparse.OpGe:
			bound := val
			if p.Op == sqlparse.OpGt {
				bound = val + 1
			}
			switch {
			case bound <= a.Min:
			case bound > a.Max:
				zero(0, a.NEntries)
			default:
				bIdx := a.BucketOf(bound)
				bLo, _ := a.BucketRange(bIdx)
				zero(0, bIdx)
				if bound != bLo {
					markSplit(bIdx)
				}
			}
			if bound > minA {
				minA = bound
			}
		case sqlparse.OpLt, sqlparse.OpLe:
			bound := val
			if p.Op == sqlparse.OpLt {
				bound = val - 1
			}
			switch {
			case bound >= a.Max:
			case bound < a.Min:
				zero(0, a.NEntries)
			default:
				bIdx := a.BucketOf(bound)
				_, bHi := a.BucketRange(bIdx)
				zero(bIdx+1, a.NEntries)
				if bound != bHi {
					markSplit(bIdx)
				}
			}
			if bound < maxA {
				maxA = bound
			}
		default:
			return 0, fmt.Errorf("core: unknown operator in %s", p)
		}
	}
	var sel float64
	switch {
	case a.Weights != nil:
		sel = weightedSel(a.Weights, vec)
	case maxA >= minA:
		excluded := int64(0)
		for v := range nots {
			if v >= minA && v <= maxA {
				excluded++
			}
		}
		r := maxA - minA + 1 - excluded
		if r < 0 {
			r = 0
		}
		sel = float64(r) / float64(a.DomainSize())
	}
	return sel, nil
}

// oracleCanonicalQuery is the string-building renderer every fingerprint
// written before the pooled renderer came from.
func oracleCanonicalQuery(q *sqlparse.Query) string {
	var b strings.Builder
	b.WriteString("T:")
	tables := append([]string(nil), q.Tables...)
	sort.Strings(tables)
	b.WriteString(strings.Join(tables, "\x01"))

	b.WriteString("|J:")
	joins := make([]string, 0, len(q.Joins))
	for _, j := range q.Joins {
		l := j.LeftTable + "." + j.LeftCol
		r := j.RightTable + "." + j.RightCol
		if r < l {
			l, r = r, l
		}
		joins = append(joins, l+"="+r)
	}
	sort.Strings(joins)
	b.WriteString(strings.Join(oracleDedupeSorted(joins), "\x01"))

	b.WriteString("|W:")
	b.WriteString(oracleCanonExpr(q.Where))

	b.WriteString("|G:")
	groups := append([]string(nil), q.GroupBy...)
	sort.Strings(groups)
	b.WriteString(strings.Join(oracleDedupeSorted(groups), "\x01"))
	return b.String()
}

func oracleFingerprint(q *sqlparse.Query) string {
	sum := sha256.Sum256([]byte(oracleCanonicalQuery(q)))
	return hex.EncodeToString(sum[:])
}

func oracleCanonExpr(e sqlparse.Expr) string {
	switch n := e.(type) {
	case nil:
		return ""
	case *sqlparse.Pred:
		return oracleCanonPred(n)
	case *sqlparse.And:
		return oracleCanonNary("&", n.Kids, func(e sqlparse.Expr) []sqlparse.Expr {
			if a, ok := e.(*sqlparse.And); ok {
				return a.Kids
			}
			return nil
		})
	case *sqlparse.Or:
		return oracleCanonNary("|", n.Kids, func(e sqlparse.Expr) []sqlparse.Expr {
			if o, ok := e.(*sqlparse.Or); ok {
				return o.Kids
			}
			return nil
		})
	}
	panic("core: unknown expression type in fingerprint")
}

func oracleCanonNary(op string, kids []sqlparse.Expr, sameOp func(sqlparse.Expr) []sqlparse.Expr) string {
	parts := make([]string, 0, len(kids))
	var add func(es []sqlparse.Expr)
	add = func(es []sqlparse.Expr) {
		for _, k := range es {
			if inner := sameOp(k); inner != nil {
				add(inner)
				continue
			}
			parts = append(parts, oracleCanonExpr(k))
		}
	}
	add(kids)
	sort.Strings(parts)
	parts = oracleDedupeSorted(parts)
	if len(parts) == 1 {
		return parts[0]
	}
	return "(" + op + "\x01" + strings.Join(parts, "\x01") + ")"
}

func oracleCanonPred(p *sqlparse.Pred) string {
	if p.Like {
		return p.Attr + "\x00like\x00" + strconv.Quote(*p.Str)
	}
	if p.Str != nil {
		return p.Attr + "\x00" + p.Op.String() + "\x00" + strconv.Quote(*p.Str)
	}
	op, val := p.Op, p.Val
	switch {
	case op == sqlparse.OpGt && val < math.MaxInt64:
		op, val = sqlparse.OpGe, val+1
	case op == sqlparse.OpLt && val > math.MinInt64:
		op, val = sqlparse.OpLe, val-1
	}
	return p.Attr + "\x00" + op.String() + "\x00" + strconv.FormatInt(val, 10)
}

func oracleDedupeSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
