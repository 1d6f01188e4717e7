package sqlparse

import (
	"fmt"
	"sort"
)

// Conjuncts flattens the top-level conjunction of expr into its children. A
// nil expression yields nil; a non-And expression yields itself.
func Conjuncts(expr Expr) []Expr {
	if expr == nil {
		return nil
	}
	if a, ok := expr.(*And); ok {
		return a.Kids
	}
	return []Expr{expr}
}

// CollectPreds returns all simple-predicate leaves of expr in left-to-right
// order.
func CollectPreds(expr Expr) []*Pred {
	var out []*Pred
	var walk func(Expr)
	walk = func(e Expr) {
		switch n := e.(type) {
		case nil:
		case *Pred:
			out = append(out, n)
		case *And:
			for _, k := range n.Kids {
				walk(k)
			}
		case *Or:
			for _, k := range n.Kids {
				walk(k)
			}
		}
	}
	walk(expr)
	return out
}

// Attrs returns the sorted set of attribute names referenced by expr.
func Attrs(expr Expr) []string {
	seen := make(map[string]struct{})
	for _, p := range CollectPreds(expr) {
		seen[p.Attr] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// NumPredicates returns the number of simple predicates in the query's
// selection expression — the grouping key of Figure 3.
func NumPredicates(q *Query) int { return len(CollectPreds(q.Where)) }

// NumAttributes returns the number of distinct attributes mentioned in the
// query's selection expression — the grouping key of Figures 2, 4, and 5.
func NumAttributes(q *Query) int { return len(Attrs(q.Where)) }

// IsConjunctive reports whether expr contains no disjunction, i.e. the query
// belongs to the paper's conjunctive class handled by Singular Predicate
// Encoding, Range Predicate Encoding, and Universal Conjunction Encoding.
func IsConjunctive(expr Expr) bool {
	switch n := expr.(type) {
	case nil, *Pred:
		return true
	case *And:
		for _, k := range n.Kids {
			if !IsConjunctive(k) {
				return false
			}
		}
		return true
	case *Or:
		return false
	}
	return false
}

// Compound is one per-attribute compound predicate of a mixed query
// (Definition 3.3): an arbitrary AND/OR combination of simple predicates
// over a single attribute.
type Compound struct {
	Attr string
	Expr Expr
}

// CompoundPredicates decomposes expr into per-attribute compound predicates,
// validating that expr is a mixed query in the sense of Definition 3.3: the
// top-level structure must be a conjunction whose conjuncts each reference
// exactly one attribute. Conjuncts on the same attribute are merged into one
// compound predicate. The result is ordered by first appearance.
//
// A nil expr yields no compounds. A conjunct mixing attributes (e.g.
// "A > 1 OR B < 2") returns an error: such queries are outside the class
// Limited Disjunction Encoding supports.
func CompoundPredicates(expr Expr) ([]Compound, error) {
	if expr == nil {
		return nil, nil
	}
	byAttr := make(map[string][]Expr)
	var order []string
	for _, kid := range Conjuncts(expr) {
		attrs := Attrs(kid)
		switch len(attrs) {
		case 0:
			return nil, fmt.Errorf("sqlparse: conjunct %q has no predicates", kid)
		case 1:
			a := attrs[0]
			if _, seen := byAttr[a]; !seen {
				order = append(order, a)
			}
			byAttr[a] = append(byAttr[a], kid)
		default:
			return nil, fmt.Errorf("sqlparse: not a mixed query (Definition 3.3): conjunct %q mixes attributes %v", kid, attrs)
		}
	}
	out := make([]Compound, len(order))
	for i, a := range order {
		out[i] = Compound{Attr: a, Expr: NewAnd(byAttr[a]...)}
	}
	return out, nil
}

// IsMixed reports whether expr is a mixed query per Definition 3.3.
func IsMixed(expr Expr) bool {
	_, err := CompoundPredicates(expr)
	return err == nil
}

// maxDNFTerms bounds the disjunction blow-up of ToDNF. Compound predicates
// in the paper's workloads have at most a handful of OR branches; the bound
// exists to turn adversarial inputs into errors instead of memory blow-ups.
const maxDNFTerms = 4096

// ToDNF converts expr into disjunctive normal form: a disjunction
// (outer slice) of conjunctions (inner slices) of simple predicates. This is
// the decomposition Algorithm 2 consumes: each compound predicate is "a
// disjunction of multiple conjunctions", each of which is featurized with
// Algorithm 1 and merged by entry-wise max.
//
// The conversion distributes AND over OR and errs when the number of terms
// would exceed an internal bound.
func ToDNF(expr Expr) ([][]*Pred, error) {
	switch n := expr.(type) {
	case nil:
		return nil, nil
	case *Pred:
		return [][]*Pred{{n}}, nil
	case *Or:
		var out [][]*Pred
		for _, k := range n.Kids {
			sub, err := ToDNF(k)
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
			if len(out) > maxDNFTerms {
				return nil, fmt.Errorf("sqlparse: DNF exceeds %d terms", maxDNFTerms)
			}
		}
		return out, nil
	case *And:
		out := [][]*Pred{{}}
		for _, k := range n.Kids {
			sub, err := ToDNF(k)
			if err != nil {
				return nil, err
			}
			next := make([][]*Pred, 0, len(out)*len(sub))
			for _, a := range out {
				for _, b := range sub {
					term := make([]*Pred, 0, len(a)+len(b))
					term = append(term, a...)
					term = append(term, b...)
					next = append(next, term)
				}
			}
			if len(next) > maxDNFTerms {
				return nil, fmt.Errorf("sqlparse: DNF exceeds %d terms", maxDNFTerms)
			}
			out = next
		}
		return out, nil
	}
	return nil, fmt.Errorf("sqlparse: unknown expr %T", expr)
}

// PredsPerAttr groups the simple predicates of expr by attribute, preserving
// per-attribute order of appearance. It ignores the boolean structure; use
// it only for conjunctive expressions, where structure is irrelevant.
func PredsPerAttr(expr Expr) map[string][]*Pred {
	out := make(map[string][]*Pred)
	for _, p := range CollectPreds(expr) {
		out[p.Attr] = append(out[p.Attr], p)
	}
	return out
}
