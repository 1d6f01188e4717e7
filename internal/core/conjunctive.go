package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"qfe/internal/sqlparse"
)

// Conjunctive is Universal Conjunction Encoding (Section 3.2, Algorithm 1).
// The domain of each attribute A is discretized into
// n_A = min(n, max(A)-min(A)+1) partitions of consecutive values; each
// partition owns one feature-vector entry whose categorical value states
// whether the partition satisfies the query's predicates on A: 1 (all
// values qualify), ½ (some qualify), 0 (none qualify). Each additional
// conjunct can only decrease entries, mirroring that conjuncts only make a
// query more selective.
//
// When Options.AttrSel is set, each per-attribute vector is followed by the
// per-attribute selectivity estimate under the uniformity assumption (the
// gray lines of Algorithm 1): the fraction of A's domain qualifying the
// predicates on A.
//
// The encoding supports arbitrarily many simple predicates per attribute,
// but only conjunctions. By Lemma 3.2 it converges to a lossless
// featurization (Definition 3.1) as n grows; once every partition holds a
// single distinct value the encoding is exactly lossless, and the
// implementation then emits only 0/1 entries (the small-domain refinement
// noted at the end of Section 3.2). More generally, literals that align
// with partition boundaries are resolved to 0/1 instead of ½.
type Conjunctive struct{ partitioned }

// NewConjunctive returns Universal Conjunction Encoding over meta.
func NewConjunctive(meta *TableMeta, opts Options) *Conjunctive {
	return &Conjunctive{newPartitioned("conjunctive", meta, opts,
		Unsupported(errors.New("core/conjunctive: disjunctions require Limited Disjunction Encoding")))}
}

// partitioned is what Universal Conjunction Encoding and Limited Disjunction
// Encoding share: the layout — per attribute a block of NEntries partition
// entries, plus one selectivity entry when AttrSel is set — and the body
// that fills it. The two differ only in whether disjunctions are admitted.
type partitioned struct {
	name string
	meta *TableMeta
	opts Options
	// offsets[ai] is attribute ai's block start in the feature vector;
	// offsets[NumAttrs] is the total dim.
	offsets []int
	// bounds[ai] is attribute ai's partitioning, tabulated once here.
	bounds []buckets
	// orErr, when non-nil, is what a disjunction is rejected with.
	orErr error
}

func newPartitioned(name string, meta *TableMeta, opts Options, orErr error) partitioned {
	p := partitioned{name: name, meta: meta, opts: opts, orErr: orErr,
		offsets: make([]int, meta.NumAttrs()+1), bounds: make([]buckets, meta.NumAttrs())}
	for i := range meta.Attrs {
		a := &meta.Attrs[i]
		p.bounds[i] = tabulate(a)
		p.offsets[i+1] = p.offsets[i] + a.NEntries
		if opts.AttrSel {
			p.offsets[i+1]++
		}
	}
	return p
}

// buckets is one attribute's partitioning as a table: his[k] is the
// inclusive upper bound of partition k, read off AttrMeta.BucketRange — the
// one definition of a partition — when the featurizer is built, so Algorithm
// 1 places a literal without dividing and reads its partition's bounds
// without computing them. Partition k is [his[k-1]+1, his[k]], starting at
// a.Min for k = 0; his is strictly ascending and ends at a.Max.
type buckets struct {
	a   *AttrMeta
	his []int64
	// slope is NEntries over the domain size: where a literal's partition
	// would be under uniform partitions, and where the search for it starts.
	slope float64
}

func tabulate(a *AttrMeta) buckets {
	his := make([]int64, a.NEntries)
	for k := range his {
		_, his[k] = a.BucketRange(k)
	}
	span := float64(uint64(a.Max)-uint64(a.Min)) + 1
	return buckets{a: a, his: his, slope: float64(a.NEntries) / span}
}

// of returns the partition of val, which must lie in [a.Min, a.Max]: the
// first whose upper bound admits it, as AttrMeta.BucketOf says. The slope
// puts it there or next to it under uniform partitions; the table decides.
func (b *buckets) of(val int64) int {
	last := len(b.his) - 1 // his[last] is a.Max, which admits val
	k := last
	if g := float64(uint64(val)-uint64(b.a.Min)) * b.slope; g < float64(last) {
		k = int(g)
	}
	for b.his[k] < val {
		k++
	}
	for k > 0 && b.his[k-1] >= val {
		k--
	}
	return k
}

// lo returns the smallest value of partition k.
func (b *buckets) lo(k int) int64 {
	if k == 0 {
		return b.a.Min
	}
	return b.his[k-1] + 1
}

// Name implements Featurizer.
func (p *partitioned) Name() string { return p.name }

// Dim implements Featurizer: sum of per-attribute entry counts, plus one
// selectivity entry per attribute when AttrSel is enabled.
func (p *partitioned) Dim() int { return p.offsets[len(p.offsets)-1] }

// Featurize implements Featurizer. expr must be conjunctive (Universal
// Conjunction Encoding) or a mixed query per Definition 3.3 (Limited
// Disjunction Encoding); anything wider returns an error.
func (p *partitioned) Featurize(expr sqlparse.Expr) ([]float64, error) {
	vec := make([]float64, p.Dim())
	if err := p.FeaturizeInto(vec, expr); err != nil {
		return nil, err
	}
	return vec, nil
}

// FeaturizeInto implements Featurizer at fixed per-attribute offsets: one
// walk chains the top-level conjuncts per attribute, then each attribute's
// compound predicate is enumerated as DNF terms (one term, when it is a
// plain conjunction), each term featurized with Algorithm 1 and max-merged
// straight into the attribute's block of dst (Algorithm 2).
func (p *partitioned) FeaturizeInto(dst []float64, expr sqlparse.Expr) error {
	if err := checkDst(p.name, dst, p.Dim()); err != nil {
		return err
	}
	sc := getScratch()
	defer putScratch(sc)
	if err := sc.group(p.name, p.meta, expr, p.orErr); err != nil {
		return err
	}
	for ai := range p.bounds {
		b := &p.bounds[ai]
		a := b.a
		off := p.offsets[ai]
		block := dst[off : off+a.NEntries]
		sel := 1.0
		if p.orErr == nil && sc.head[ai] < 0 {
			// Limited Disjunction Encoding without a compound predicate on
			// the attribute: the all-one vector, full selectivity. (Universal
			// Conjunction Encoding runs Algorithm 1 on the empty conjunction
			// instead; with frequency weights that selectivity is their sum,
			// which need not round to exactly 1.)
			fill(block, 1)
		} else {
			var err error
			if sel, err = sc.attrCompound(b, sc.attrKids(ai), block); err != nil {
				return err
			}
		}
		if p.opts.AttrSel {
			dst[off+a.NEntries] = sel
		}
	}
	return nil
}

// scratch is the workspace of one featurization call. Every slice in it is
// reset and regrown by the step that uses it, so a steady stream of queries
// featurizes without allocating. FeaturizeInto draws one from scratchPool
// for the duration of the call and never lets it escape; the featurizers
// themselves stay stateless and safe for concurrent use.
type scratch struct {
	// The query's top-level conjuncts in order of appearance (nested ANDs
	// flattened), chained per attribute *index* — "t.a" and "a" share a
	// chain: head[ai] is attribute ai's first conjunct, next[i] the one
	// after conjunct i, -1 ending a chain; tail makes appending O(1).
	conj             []sqlparse.Expr
	head, tail, next []int32
	kids             []sqlparse.Expr  // one attribute's chain, gathered
	preds            []*sqlparse.Pred // the predicates of all DNF terms, term after term
	terms            []span           // each DNF term as a span of preds
	nots             []int64          // one term's not-equal literals
	part             []float64        // one term's partition vector, before the max-merge
	ands             []sqlparse.And   // the per-table split of a multi-table query (GlobalFeaturizer)
	// The last attribute name group resolved, and its index: a compound
	// predicate names its attribute once per simple predicate, so a run of
	// equal names costs one lookup.
	lastName string
	lastAttr int
}

// span is a half-open index range into one of the scratch arenas.
type span struct{ lo, hi int32 }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch returns sc to the pool, unless a DNF close to the term bound
// inflated it: that memory is better left to the collector than pinned.
func putScratch(sc *scratch) {
	if cap(sc.preds) <= 1<<14 {
		scratchPool.Put(sc)
	}
}

// group walks the top-level conjunction of expr once and chains every
// conjunct to the attribute it constrains. A conjunct is a simple predicate
// or, unless orErr forbids it, a disjunction over a single attribute
// (Definition 3.3); anything else is an error. A conjunct that names an
// attribute meta does not have — unknown, or qualified with another table —
// is refused as Unsupported.
func (sc *scratch) group(qft string, meta *TableMeta, expr sqlparse.Expr, orErr error) error {
	sc.conj, sc.next = sc.conj[:0], sc.next[:0]
	sc.head, sc.tail = sc.head[:0], sc.tail[:0]
	for range meta.Attrs {
		sc.head = append(sc.head, -1)
		sc.tail = append(sc.tail, -1)
	}
	sc.lastName, sc.lastAttr = "", -1
	err := sc.addConjuncts(qft, meta, expr, orErr)
	sc.lastName = "" // pin no query text in the pool
	return err
}

func (sc *scratch) addConjuncts(qft string, meta *TableMeta, expr sqlparse.Expr, orErr error) error {
	switch n := expr.(type) {
	case nil:
		return nil
	case *sqlparse.And:
		for _, k := range n.Kids {
			if err := sc.addConjuncts(qft, meta, k, orErr); err != nil {
				return err
			}
		}
		return nil
	case *sqlparse.Or:
		if orErr != nil {
			return orErr
		}
	}
	ai, err := sc.conjunctAttr(qft, meta, expr, -1)
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

// conjunctAttr resolves the one attribute all predicates under expr
// reference, given that the predicates seen so far reference attribute ai
// (-1: none yet).
func (sc *scratch) conjunctAttr(qft string, meta *TableMeta, expr sqlparse.Expr, ai int) (int, error) {
	var kids []sqlparse.Expr
	switch n := expr.(type) {
	case *sqlparse.Pred:
		if n.Str != nil {
			return 0, fmt.Errorf("core/%s: unbound string predicate %s", qft, n)
		}
		if sc.lastAttr < 0 || n.Attr != sc.lastName {
			sc.lastName, sc.lastAttr = n.Attr, meta.AttrIndex(n.Attr)
		}
		i := sc.lastAttr
		if i < 0 {
			return 0, Unsupported(fmt.Errorf("core/%s: unknown attribute %q", qft, n.Attr))
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
		if ai, err = sc.conjunctAttr(qft, meta, k, ai); err != nil {
			return 0, err
		}
	}
	return ai, nil
}

// attrKids gathers attribute ai's conjuncts, in order of appearance.
func (sc *scratch) attrKids(ai int) []sqlparse.Expr {
	sc.kids = sc.kids[:0]
	for i := sc.head[ai]; i >= 0; i = sc.next[i] {
		sc.kids = append(sc.kids, sc.conj[i])
	}
	return sc.kids
}

// attrPreds is attrKids for a grouping made with disjunctions forbidden,
// where every conjunct is a simple predicate.
func (sc *scratch) attrPreds(ai int) []*sqlparse.Pred {
	sc.preds = sc.preds[:0]
	for i := sc.head[ai]; i >= 0; i = sc.next[i] {
		sc.preds = append(sc.preds, sc.conj[i].(*sqlparse.Pred))
	}
	return sc.preds
}

// FeaturizeAttrConjunction runs Algorithm 1 for a single attribute: it
// returns the n_A-entry partition vector for the conjunction of preds on
// attribute a, together with the per-attribute selectivity estimate
// r_A / (max(A)-min(A)+1) of the gray lines.
//
// The boundary refinement generalizes the paper's small-domain note: a
// partition is marked ½ only when the literal genuinely splits it; literals
// aligned with a partition edge resolve the partition to 0 or 1. With
// n_A == domain size every partition is a single value, so the vector is
// purely 0/1.
func FeaturizeAttrConjunction(a AttrMeta, preds []*sqlparse.Pred) ([]float64, float64, error) {
	sc := getScratch()
	defer putScratch(sc)
	vec := make([]float64, a.NEntries)
	b := tabulate(&a)
	sel, err := sc.attrConjunction(&b, preds, vec)
	if err != nil {
		return nil, 0, err
	}
	return vec, sel, nil
}

// attrConjunction is Algorithm 1 writing the partition vector of attribute
// b.a into vec (length NEntries, fully overwritten) — the one implementation
// behind every partition-based featurization. A literal inside the domain is
// placed by b's table; one outside it is decided by comparison with the
// domain's ends.
func (sc *scratch) attrConjunction(b *buckets, preds []*sqlparse.Pred, vec []float64) (float64, error) {
	a := b.a
	fill(vec, 1)
	// Running bounds for the selectivity estimate; equality predicates also
	// narrow them (a refinement over the paper's pseudocode, which tracks
	// bounds only for range operators). Bounds with maxA < minA are empty,
	// and stay empty: minA only grows, maxA only shrinks.
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
				fill(vec, 0)      // impossible predicate
				minA, maxA = 1, 0 // empty bounds
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
			bound := val // smallest qualifying value
			if p.Op == sqlparse.OpGt {
				if val == math.MaxInt64 {
					fill(vec, 0) // nothing exceeds the largest integer
					minA, maxA = 1, 0
					continue
				}
				bound = val + 1
			}
			switch {
			case bound <= a.Min:
				// Everything qualifies; nothing to do.
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
			bound := val // largest qualifying value
			if p.Op == sqlparse.OpLt {
				if val == math.MinInt64 {
					fill(vec, 0) // nothing precedes the smallest integer
					minA, maxA = 1, 0
					continue
				}
				bound = val - 1
			}
			switch {
			case bound >= a.Max:
				// Everything qualifies; nothing to do.
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

	// Per-attribute selectivity estimate. With frequency weights attached
	// (NewTableMetaWeighted), the estimate is the weighted coverage
	// Σ_b Weights[b]·entry_b; otherwise the paper's uniformity assumption
	// (gray lines): the qualifying share of the domain, with the distinct
	// not-equal literals inside the surviving range counted out.
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

// weightedSel combines per-partition frequency shares with partition
// qualification values: full partitions contribute their whole mass,
// ½-partitions half of it.
func weightedSel(weights, vec []float64) float64 {
	var sel float64
	for b, v := range vec {
		sel += weights[b] * v
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}
