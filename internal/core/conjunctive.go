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
// walk chains the top-level conjuncts per attribute, by the column stamp of
// each one's first predicate, then each attribute's compound predicate is
// folded into DNF terms in interval form (one term, when it is a plain
// conjunction), which are max-merged straight into the attribute's block of
// dst (Algorithms 1 and 2). The fold checks that every predicate it meets
// constrains the attribute it folds (Definition 3.3).
func (p *partitioned) FeaturizeInto(dst []float64, expr sqlparse.Expr) error {
	if err := checkDst(p.name, dst, p.Dim()); err != nil {
		return err
	}
	sc := getScratch()
	defer putScratch(sc)
	if err := sc.group(p.name, p.meta, expr, p.orErr, false); err != nil {
		return sc.refusal(p.name, p.meta, expr, p.orErr, err)
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
			fillOnes(block)
		} else {
			var err error
			if sel, err = sc.attrCompound(b, p.meta, ai, sc.attrKids(ai), block); err != nil {
				return sc.refusal(p.name, p.meta, expr, p.orErr, err)
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
	preds            []*sqlparse.Pred // one attribute's chain under Range Predicate Encoding
	terms            []term           // one attribute's DNF terms, in interval form
	nes              []notEq          // the terms' not-equal literals, placed
	saved            []saved          // the entries merge puts back
	ands             []sqlparse.And   // the per-table split of a multi-table query (GlobalFeaturizer)
	// The attribute the fold is for: every predicate it meets must be meta's
	// attribute ai; ai < 0 checks nothing.
	meta *TableMeta
	ai   int
}

// span is a half-open index range into one of the scratch arenas.
type span struct{ lo, hi int32 }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch returns sc to the pool if keep says it may.
func putScratch(sc *scratch) {
	if sc.keep() {
		scratchPool.Put(sc)
	}
}

// maxPooled bounds, in elements, every slice a pooled scratch keeps.
const maxPooled = 1 << 12

// keep reports whether sc is small enough to pool. A DNF near the term bound
// inflates the term arenas, and a WHERE of tens of thousands of conjuncts the
// grouping's; that memory is better left to the collector than pinned.
func (sc *scratch) keep() bool {
	if max(cap(sc.conj), cap(sc.head), cap(sc.tail), cap(sc.next), cap(sc.kids), cap(sc.preds),
		cap(sc.terms), cap(sc.nes), cap(sc.saved), cap(sc.ands)) > maxPooled {
		return false
	}
	for i := range sc.ands {
		if cap(sc.ands[i].Kids) > maxPooled {
			return false
		}
	}
	return true
}

// group walks the top-level conjunction of expr once and chains every
// conjunct to the attribute its first predicate constrains, read off the
// column stamp exec.Bind wrote. A conjunct is a simple predicate or, unless
// orErr forbids it, a disjunction over a single attribute (Definition 3.3);
// anything else is an error. A predicate without a stamp, or whose stamp
// names an attribute meta does not have — an unknown column, or one of
// another table — is refused as Unsupported. With every set, group checks
// every predicate of every conjunct as it goes, the order in which a query's
// refusals are reported (see refusal).
func (sc *scratch) group(qft string, meta *TableMeta, expr sqlparse.Expr, orErr error, every bool) error {
	sc.conj, sc.next = sc.conj[:0], sc.next[:0]
	n := len(meta.Attrs)
	sc.head, sc.tail = slices.Grow(sc.head[:0], n)[:n], slices.Grow(sc.tail[:0], n)[:n]
	for i := range sc.head {
		sc.head[i], sc.tail[i] = -1, -1
	}
	return sc.addConjuncts(qft, meta, expr, orErr, every)
}

// refusal is the error a query the fast path refused with err is reported
// with: the first of its conjuncts the grouping refuses, in order of
// appearance, as if every predicate had been checked before any was folded;
// else err.
func (sc *scratch) refusal(qft string, meta *TableMeta, expr sqlparse.Expr, orErr, err error) error {
	if gerr := sc.group(qft, meta, expr, orErr, true); gerr != nil {
		return gerr
	}
	return err
}

func (sc *scratch) addConjuncts(qft string, meta *TableMeta, expr sqlparse.Expr, orErr error, every bool) error {
	switch n := expr.(type) {
	case nil:
		return nil
	case *sqlparse.And:
		for _, k := range n.Kids {
			if err := sc.addConjuncts(qft, meta, k, orErr, every); err != nil {
				return err
			}
		}
		return nil
	case *sqlparse.Or:
		if orErr != nil {
			return orErr
		}
	}
	ai, err := conjunctSlot(qft, meta, expr, -1, every)
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

// conjunctSlot returns the attribute the first predicate under expr
// constrains, given that the predicates seen so far constrain attribute ai
// (-1: none yet). With every set it checks that all of them constrain it.
func conjunctSlot(qft string, meta *TableMeta, expr sqlparse.Expr, ai int, every bool) (int, error) {
	var kids []sqlparse.Expr
	switch n := expr.(type) {
	case *sqlparse.Pred:
		if n.Str != nil {
			return 0, fmt.Errorf("core/%s: unbound string predicate %s", qft, n)
		}
		if n.Col == 0 {
			return 0, Unsupported(fmt.Errorf("core/%s: predicate %s is not bound to a column (exec.Bind)", qft, n))
		}
		if meta.slots == nil {
			return 0, fmt.Errorf("core/%s: table %q is not mapped onto a database's columns (TableMeta.MapColumns)", qft, meta.Name)
		}
		i := meta.slot(n)
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
		if ai, err = conjunctSlot(qft, meta, k, ai, every); err != nil || ai >= 0 && !every {
			return ai, err
		}
	}
	return ai, nil
}

// errMixed is what the fold stops at when a predicate does not constrain the
// attribute it folds; refusal reports the query's actual refusal instead.
var errMixed = Unsupported(errors.New("core: a conjunct mixes attributes"))

// owns reports whether p constrains the attribute the fold is for.
func (sc *scratch) owns(p *sqlparse.Pred) bool {
	return sc.ai < 0 || sc.meta.slot(p) == sc.ai
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
	kids := make([]sqlparse.Expr, len(preds))
	for i, p := range preds {
		kids[i] = p
	}
	return FeaturizeAttrCompound(a, &sqlparse.And{Kids: kids})
}

// term is Algorithm 1 for one conjunction of simple predicates, on partition
// indices instead of a vector. Each predicate's own vector is 0, ½ or 1 per
// entry and Algorithm 1 keeps their entry-wise minimum, so the conjunction's
// vector is 0 outside the partitions [lo, hi] its bounds and equalities
// leave, and 1 inside but where a literal splits a partition (½: lo or hi for
// a bound, any for a <>) or a <> empties a one-value one (0). A minimum does
// not depend on the order it is taken in: a term is built a predicate at a
// time (and) or from two terms (meet), with the same vector either way.
type term struct {
	lo, hi         int32 // the partitions that may be nonzero: none when hi < lo
	loHalf, hiHalf bool  // a literal splits partition lo (hi)
	// The selectivity estimate's bounds; equality predicates also narrow them
	// (a refinement over the paper's pseudocode, which tracks bounds only for
	// range operators). They are empty when maxA < minA.
	minA, maxA int64
	nes        span  // the distinct in-domain <> literals in ascending order, in scratch.nes
	bad        error // what Algorithm 1 refuses first, in predicate order
}

// notEq is a <> literal inside the domain, placed in its partition.
type notEq struct {
	val    int64
	part   int32
	single bool // part holds val alone: the <> empties it instead of splitting it
}

// whole is the empty conjunction: every partition 1, the whole domain.
func whole(b *buckets) term {
	return term{hi: int32(len(b.his) - 1), minA: b.a.Min, maxA: b.a.Max}
}

// above zeroes the partitions below k, and splits k when split is set.
func (t *term) above(k int32, split bool) {
	if k > t.lo {
		t.lo, t.loHalf = k, split
	} else if k == t.lo {
		t.loHalf = t.loHalf || split
	}
}

// below zeroes the partitions above k, and splits k when split is set.
func (t *term) below(k int32, split bool) {
	if k < t.hi {
		t.hi, t.hiHalf = k, split
	} else if k == t.hi {
		t.hiHalf = t.hiHalf || split
	}
}

// and narrows t by p (Algorithm 1): every operator but <> admits an interval
// of values, placed by b's table where it cuts the domain; a <> literal is
// inserted in order, once. t's <> literals, if any, must end sc.nes.
func (sc *scratch) and(b *buckets, t *term, p *sqlparse.Pred) {
	if t.bad != nil {
		return
	}
	a, val := b.a, p.Val
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64) // the values p admits
	switch {
	case p.Str != nil:
		t.bad = fmt.Errorf("core: unbound string predicate %s", p)
		return
	case p.Op == sqlparse.OpNe:
		if val >= a.Min && val <= a.Max {
			k := b.of(val)
			sc.addNe(t, notEq{val: val, part: int32(k), single: b.lo(k) == b.his[k]})
		}
		return
	case p.Op == sqlparse.OpEq:
		lo, hi = val, val
	case p.Op == sqlparse.OpGe:
		lo = val
	case p.Op == sqlparse.OpGt && val == math.MaxInt64, p.Op == sqlparse.OpLt && val == math.MinInt64:
		lo, hi = 1, 0 // nothing lies beyond an end of int64
	case p.Op == sqlparse.OpGt:
		lo = val + 1
	case p.Op == sqlparse.OpLe:
		hi = val
	case p.Op == sqlparse.OpLt:
		hi = val - 1
	default:
		t.bad = fmt.Errorf("core: unknown operator in %s", p)
		return
	}
	t.minA, t.maxA = max(t.minA, lo), min(t.maxA, hi)
	if lo > hi || lo > a.Max || hi < a.Min {
		t.hi = -1 // no value of the domain qualifies
		return
	}
	if lo > a.Min {
		k := b.of(lo)
		t.above(int32(k), lo != b.lo(k))
	}
	if hi < a.Max {
		k := b.of(hi)
		t.below(int32(k), hi != b.his[k])
	}
}

// meet is the conjunction of x and y: its predicates are x's, then y's.
func (sc *scratch) meet(x, y *term) term {
	t := *x
	t.above(y.lo, y.loHalf)
	t.below(y.hi, y.hiHalf)
	t.minA, t.maxA = max(t.minA, y.minA), min(t.maxA, y.maxA)
	if t.bad == nil {
		t.bad = y.bad
	}
	switch {
	case y.nes.lo == y.nes.hi:
	case x.nes.lo == x.nes.hi:
		t.nes = y.nes
	default:
		lo := int32(len(sc.nes))
		sc.nes = append(sc.nes, sc.nes[x.nes.lo:x.nes.hi]...)
		t.nes = span{lo, int32(len(sc.nes))}
		for k := y.nes.lo; k < y.nes.hi; k++ {
			sc.addNe(&t, sc.nes[k])
		}
	}
	return t
}

// addNe inserts ne into t's <> literals, which must end sc.nes, keeping them
// ascending and each value once.
func (sc *scratch) addNe(t *term, ne notEq) {
	if t.nes.lo == t.nes.hi {
		t.nes = span{int32(len(sc.nes)), int32(len(sc.nes))}
	}
	i := t.nes.hi
	for i > t.nes.lo && sc.nes[i-1].val > ne.val {
		i--
	}
	if i > t.nes.lo && sc.nes[i-1].val == ne.val {
		return
	}
	sc.nes = append(sc.nes, ne)
	for j := t.nes.hi; j > i; j-- {
		sc.nes[j] = sc.nes[j-1]
	}
	sc.nes[i] = ne
	t.nes.hi++
}

// merge max-merges t's vector into block (Algorithm 2, line 5). t is 0
// outside [lo, hi] and 1 inside, but for the partitions a literal splits (½)
// or a <> empties (0): one split holds several values and one emptied holds
// one, so no partition is both. Their merged entries are taken first, then
// [lo, hi] is filled with ones and they are put back.
func (sc *scratch) merge(block []float64, t *term) {
	if t.hi < t.lo {
		return
	}
	sc.saved = sc.saved[:0]
	if t.loHalf {
		sc.saved = append(sc.saved, saved{t.lo, max(block[t.lo], 0.5)})
	}
	if t.hiHalf {
		sc.saved = append(sc.saved, saved{t.hi, max(block[t.hi], 0.5)})
	}
	for _, ne := range sc.nes[t.nes.lo:t.nes.hi] {
		if ne.part >= t.lo && ne.part <= t.hi {
			v := 0.5
			if ne.single {
				v = 0
			}
			sc.saved = append(sc.saved, saved{ne.part, max(block[ne.part], v)})
		}
	}
	fillOnes(block[t.lo : t.hi+1])
	for _, s := range sc.saved {
		block[s.k] = s.v
	}
}

// saved is a merged block entry, put back after a fill.
type saved struct {
	k int32
	v float64
}

// sel is t's selectivity estimate under the paper's uniformity assumption
// (gray lines): the qualifying share of the domain, with the <> literals
// inside the bounds — distinct, as and and meet keep them — counted out.
func (sc *scratch) sel(a *AttrMeta, t *term) float64 {
	if t.maxA < t.minA {
		return 0
	}
	r := t.maxA - t.minA + 1
	for _, ne := range sc.nes[t.nes.lo:t.nes.hi] {
		if ne.val >= t.minA && ne.val <= t.maxA {
			r--
		}
	}
	return float64(r) / float64(a.DomainSize())
}

// ones is what fillOnes copies from.
var ones = func() (o [64]float64) {
	for i := range o {
		o[i] = 1
	}
	return o
}()

// fillOnes sets every entry of vec to 1.
func fillOnes(vec []float64) {
	for len(vec) > 0 {
		vec = vec[copy(vec, ones[:]):]
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
