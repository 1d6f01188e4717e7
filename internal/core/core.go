// Package core implements the paper's primary contribution: query
// featurization techniques (QFTs) that encode the selection predicates of a
// COUNT(*) query into a fixed-length numerical feature vector for ML-based
// cardinality estimation.
//
// Four QFTs are provided, under the paper's abbreviations (Section 5):
//
//   - Singular Predicate Encoding ("simple", Section 2.1.1) — the
//     established baseline: 4 entries per attribute (operator one-hot plus
//     normalized literal); at most one predicate per attribute survives.
//   - Range Predicate Encoding ("range", Section 3.1) — every point or range
//     predicate is rewritten to a closed, normalized range [lo, hi]; one
//     range per attribute.
//   - Universal Conjunction Encoding ("conjunctive", Section 3.2,
//     Algorithm 1) — the attribute domain is partitioned into up to n
//     buckets; each bucket entry is 1 (all values qualify), ½ (some
//     qualify), or 0 (none qualify). Handles arbitrarily many conjunctive
//     predicates per attribute and converges to a lossless featurization as
//     n grows (Lemma 3.2).
//   - Limited Disjunction Encoding ("complex", Section 3.3, Algorithm 2) —
//     generalizes Universal Conjunction Encoding to mixed queries
//     (Definition 3.3): each per-attribute compound predicate is split into
//     its disjuncts, each disjunct featurized with Algorithm 1, and the
//     per-disjunct vectors merged by entry-wise max.
//
// All QFTs are model-independent: they emit plain []float64 vectors consumed
// unchanged by the gradient-boosting, feed-forward, and MSCN models in
// internal/ml. The package also provides the join adapters of
// Sections 2.1.2 and 4.2 (global-model table bit-vectors and MSCN predicate
// sets) and the Section 6 extensions (GROUP BY vectors, string-prefix
// featurization via dictionary order). The lossless-featurization decoder
// that verifies Definition 3.1 and Lemma 3.2 lives with its tests
// (decode_test.go).
//
// The featurizers read which attribute a predicate constrains off the column
// stamp exec.Bind writes (sqlparse.Pred.Col): a query is bound before it is
// featurized, and a predicate nobody bound is refused as Unsupported.
package core

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// AttrMeta is the per-attribute metadata a QFT needs: the attribute's name
// and integer domain bounds. NEntries is the number of feature-vector
// entries assigned to the attribute by the partition-based QFTs
// (n_A = min(n, max(A)-min(A)+1), Section 3.2).
type AttrMeta struct {
	Name     string
	Min, Max int64
	// NEntries is n_A; fixed when the TableMeta is built.
	NEntries int
	// Boundaries, when non-nil, defines data-driven partitions instead of
	// Algorithm 1's uniform ones (the Section 3.2 histogram extension):
	// entry k is the inclusive upper value bound of partition k, the last
	// partition's bound (Max) being implied, so len(Boundaries) ==
	// NEntries-1. Boundaries are strictly ascending and lie in [Min, Max).
	Boundaries []int64
	// Weights, when non-nil (len == NEntries), holds each partition's
	// fraction of the table's rows. It upgrades the appended per-attribute
	// selectivity estimate from the paper's uniformity assumption (gray
	// lines of Algorithm 1) to a frequency-weighted estimate:
	// sel = Σ_b Weights[b] · entry_b. Populated by NewTableMetaWeighted.
	Weights []float64
}

// DomainSize returns max-min+1, the number of distinct representable values.
func (a AttrMeta) DomainSize() int64 { return a.Max - a.Min + 1 }

// Exact reports whether each feature-vector entry corresponds to exactly one
// distinct value, the small-domain case in which Algorithm 1 emits only 0/1
// entries (end of Section 3.2).
func (a AttrMeta) Exact() bool { return int64(a.NEntries) == a.DomainSize() }

// BucketOf returns the zero-based feature-vector index of value val. For
// uniform partitions this is floor((val-min) / (max-min+1) * n_A), the
// index formula of Algorithm 1, line 4; with explicit Boundaries the index
// is found by binary search. Values outside the domain yield -1 (below Min)
// or NEntries (above Max), decided before any arithmetic: the index formula
// truncates toward zero, so it would put Min-1 into bucket 0, and its product
// overflows for values near the ends of int64. Callers handle clamping per
// operator semantics.
func (a AttrMeta) BucketOf(val int64) int {
	if val < a.Min {
		return -1
	}
	if val > a.Max {
		return a.NEntries
	}
	if a.Boundaries == nil {
		return int((val - a.Min) * int64(a.NEntries) / a.DomainSize())
	}
	// First partition whose inclusive upper bound admits val.
	lo, hi := 0, len(a.Boundaries)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.Boundaries[mid] >= val {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// BucketRange returns the closed value interval [lo, hi] that bucket idx
// represents. It is the inverse of BucketOf and drives the lossless decoder.
func (a AttrMeta) BucketRange(idx int) (lo, hi int64) {
	if a.Boundaries != nil {
		lo = a.Min
		if idx > 0 {
			lo = a.Boundaries[idx-1] + 1
		}
		hi = a.Max
		if idx < len(a.Boundaries) {
			hi = a.Boundaries[idx]
		}
		return lo, hi
	}
	d := a.DomainSize()
	n := int64(a.NEntries)
	lo = a.Min + ceilDiv(int64(idx)*d, n)
	hi = a.Min + ceilDiv(int64(idx+1)*d, n) - 1
	if hi > a.Max {
		hi = a.Max
	}
	return lo, hi
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}

// Normalize maps val into [0, 1] relative to the attribute domain, the
// literal encoding used by Singular Predicate Encoding and Range Predicate
// Encoding (Section 2.1.1). Out-of-domain values are clamped — by comparison,
// before any arithmetic that could wrap at the int64 extremes.
func (a AttrMeta) Normalize(val int64) float64 {
	switch {
	case a.Max == a.Min, val <= a.Min:
		return 0
	case val >= a.Max:
		return 1
	}
	return float64(val-a.Min) / float64(a.Max-a.Min)
}

// TableMeta holds the featurization metadata for one table (or one
// sub-schema side, when attribute names are qualified). It is the immutable
// context shared by all QFTs.
type TableMeta struct {
	Name  string
	Attrs []AttrMeta
	index map[string]int
	// slots maps a predicate's column stamp (sqlparse.Pred.Col, written by
	// exec.Bind) to the attribute it constrains: slots[stamp-1] is the
	// attribute's index in Attrs, -1 for a column the meta does not cover.
	// A meta built from a table is mapped onto it at construction; one built
	// from attributes or a spec has no map until MapColumns gives it one.
	slots []int32
}

// MapColumns maps the meta's column stamps onto t's columns, so a predicate
// exec.Bind stamped against t is read as the attribute of its column's name:
// what a meta built from attributes or a spec needs before it featurizes
// (Local.ValidateSchema calls it). It returns the first attribute t has no
// column for, leaving the meta as it was, or "". It must not run while the
// meta featurizes.
func (m *TableMeta) MapColumns(t *table.Table) (missing string) {
	slots := make([]int32, t.NumCols())
	for i := range slots {
		slots[i] = -1
	}
	for ai, a := range m.Attrs {
		c := t.ColumnIndex(a.Name)
		if c < 0 {
			return a.Name
		}
		slots[c] = int32(ai)
	}
	m.slots = slots
	return ""
}

// slot returns the attribute p constrains, read off its column stamp, or -1:
// p is unstamped, its column is one the meta does not cover, or it is
// qualified with another table. A bare name's stamp is read as the meta's
// table's column with no second look at the name: exec.Bind resolved it
// against the query's one table, and a query's WHERE (or its per-table
// share) is handed to its own table's featurizer.
func (m *TableMeta) slot(p *sqlparse.Pred) int {
	if c := uint(p.Col) - 1; c < uint(len(m.slots)) {
		if ai := int(m.slots[c]); ai >= 0 && (!p.Qualified || m.qualifies(p.Attr, ai)) {
			return ai
		}
	}
	return -1
}

// qualifies reports whether attr is attribute ai's name qualified with the
// meta's table.
func (m *TableMeta) qualifies(attr string, ai int) bool {
	dot := strings.IndexByte(attr, '.')
	return dot >= 0 && attr[:dot] == m.Name && attr[dot+1:] == m.Attrs[ai].Name
}

// Options configures QFT construction.
type Options struct {
	// MaxEntriesPerAttr is n, the maximum number of partitions per
	// attribute for Universal Conjunction Encoding and Limited Disjunction
	// Encoding (Section 3.2). The paper evaluates n in {8, 16, 32, 64, 256}
	// and finds 32 a reasonable heuristic; 64 is the evaluation default.
	MaxEntriesPerAttr int
	// AttrSel appends the per-attribute selectivity estimate (the gray
	// lines of Algorithm 1) to each per-attribute vector. Table 3 studies
	// its effect.
	AttrSel bool
}

// DefaultOptions mirrors the paper's evaluation defaults: 64 per-attribute
// entries with per-attribute selectivity estimates appended.
func DefaultOptions() Options {
	return Options{MaxEntriesPerAttr: 64, AttrSel: true}
}

// Normalized fills unset fields with the paper's defaults: a zero
// MaxEntriesPerAttr means 64, not one partition per attribute. Estimator
// constructors call this so the zero value of Options is usable.
func (o Options) Normalized() Options {
	if o.MaxEntriesPerAttr <= 0 {
		o.MaxEntriesPerAttr = 64
	}
	return o
}

// NewTableMeta derives featurization metadata from a materialized table,
// reading each column's min/max statistics. n is the maximum number of
// per-attribute entries (Options.MaxEntriesPerAttr).
func NewTableMeta(t *table.Table, n int) *TableMeta {
	if n < 1 {
		n = 1
	}
	m := &TableMeta{Name: t.Name, index: make(map[string]int, t.NumCols())}
	for _, col := range t.Columns() {
		a := AttrMeta{Name: col.Name, Min: col.Min(), Max: col.Max()}
		a.NEntries = entriesFor(a, n)
		m.index[a.Name] = len(m.Attrs)
		m.Attrs = append(m.Attrs, a)
	}
	m.MapColumns(t)
	return m
}

// NewTableMetaWeighted derives featurization metadata like NewTableMeta and
// additionally records each partition's row-frequency share, upgrading the
// appended selectivity estimate from the uniformity assumption to a
// frequency-weighted one (see AttrMeta.Weights). The partitions themselves
// stay uniform (Algorithm 1); combine with NewTableMetaPartitioned by
// setting Weights on its result via AttachWeights.
func NewTableMetaWeighted(t *table.Table, n int) *TableMeta {
	m := NewTableMeta(t, n)
	AttachWeights(m, t)
	return m
}

// AttachWeights computes and stores per-partition row-frequency shares on
// every attribute of meta from the table's data. The meta's attribute names
// must match t's columns. It panics when t's rows were dropped
// (table.DB.DropRows): the shares of an empty column would all be zero.
func AttachWeights(meta *TableMeta, t *table.Table) {
	if err := t.CheckRows(); err != nil {
		panic(err)
	}
	rows := float64(t.NumRows())
	for i := range meta.Attrs {
		a := &meta.Attrs[i]
		col := t.Column(a.Name)
		if col == nil || rows == 0 {
			continue
		}
		w := make([]float64, a.NEntries)
		for _, v := range col.Vals {
			idx := a.BucketOf(v)
			if idx >= 0 && idx < a.NEntries {
				w[idx]++
			}
		}
		for b := range w {
			w[b] /= rows
		}
		a.Weights = w
	}
}

// Partitioner produces the inclusive upper boundaries (all but the last)
// for partitioning one column's domain into at most n parts. It is the
// plug-in point for the histogram-based partitioning schemes of
// internal/histogram (the Section 3.2 extension); returning fewer than n-1
// boundaries simply yields fewer partitions.
type Partitioner func(col *table.Column, n int) ([]int64, error)

// NewTableMetaPartitioned derives featurization metadata whose partitions
// come from the given Partitioner instead of Algorithm 1's uniform split —
// e.g. equi-depth or v-optimal boundaries from internal/histogram. The
// small-domain case (domain size <= n) keeps the exact one-value-per-entry
// partitioning regardless of the partitioner.
func NewTableMetaPartitioned(t *table.Table, n int, part Partitioner) (*TableMeta, error) {
	if n < 1 {
		n = 1
	}
	m := &TableMeta{Name: t.Name, index: make(map[string]int, t.NumCols())}
	for _, col := range t.Columns() {
		a := AttrMeta{Name: col.Name, Min: col.Min(), Max: col.Max()}
		if d := a.DomainSize(); d <= int64(n) {
			a.NEntries = int(d)
		} else {
			bounds, err := part(col, n)
			if err != nil {
				return nil, fmt.Errorf("core: partition column %q: %w", col.Name, err)
			}
			if err := validBoundaries(a, bounds); err != nil {
				return nil, fmt.Errorf("core: column %q: %w", col.Name, err)
			}
			a.Boundaries = bounds
			a.NEntries = len(bounds) + 1
		}
		m.index[a.Name] = len(m.Attrs)
		m.Attrs = append(m.Attrs, a)
	}
	m.MapColumns(t)
	return m, nil
}

// validBoundaries checks the Boundaries contract: strictly ascending values
// in [Min, Max).
func validBoundaries(a AttrMeta, bounds []int64) error {
	prev := a.Min - 1
	for i, b := range bounds {
		if b <= prev {
			return fmt.Errorf("boundary %d (%d) not ascending", i, b)
		}
		if b < a.Min || b >= a.Max {
			return fmt.Errorf("boundary %d (%d) outside [%d, %d)", i, b, a.Min, a.Max)
		}
		prev = b
	}
	return nil
}

// NewTableMetaAdaptive derives featurization metadata with an
// attribute-specific number of partitions — the extension Section 3.2
// sketches ("it is easy to extend our approach to choose an
// attribute-specific n"). A total per-table entry budget is distributed over
// the attributes proportionally to the logarithm of their distinct counts:
// attributes with more distinct values (where uniform partitions lose more
// information) receive more entries, while binary indicators get exactly
// their domain size. Every attribute receives at least minEntries (clamped
// to its domain size).
func NewTableMetaAdaptive(t *table.Table, budget, minEntries int) *TableMeta {
	if minEntries < 1 {
		minEntries = 1
	}
	cols := t.Columns()
	weights := make([]float64, len(cols))
	var totalWeight float64
	for i, col := range cols {
		// log2(distinct)+1 grows slowly, so wide attributes gain entries
		// without starving the rest.
		w := math.Log2(float64(col.Distinct())) + 1
		if w < 1 {
			w = 1
		}
		weights[i] = w
		totalWeight += w
	}
	m := &TableMeta{Name: t.Name, index: make(map[string]int, len(cols))}
	for i, col := range cols {
		a := AttrMeta{Name: col.Name, Min: col.Min(), Max: col.Max()}
		share := int(float64(budget) * weights[i] / totalWeight)
		if share < minEntries {
			share = minEntries
		}
		a.NEntries = entriesFor(a, share)
		m.index[a.Name] = len(m.Attrs)
		m.Attrs = append(m.Attrs, a)
	}
	m.MapColumns(t)
	return m
}

// NewTableMetaFromAttrs builds metadata from explicit attribute bounds; used
// when the raw data is not materialized (e.g. metadata shipped with a
// trained model). It featurizes bound queries once MapColumns has mapped it
// onto their table.
func NewTableMetaFromAttrs(name string, attrs []AttrMeta, n int) *TableMeta {
	if n < 1 {
		n = 1
	}
	m := &TableMeta{Name: name, index: make(map[string]int, len(attrs))}
	for _, a := range attrs {
		a.NEntries = entriesFor(a, n)
		m.index[a.Name] = len(m.Attrs)
		m.Attrs = append(m.Attrs, a)
	}
	return m
}

func entriesFor(a AttrMeta, n int) int {
	if d := a.DomainSize(); d < int64(n) {
		return int(d)
	}
	return n
}

// MetaSpec is the serializable form of a TableMeta: everything a featurizer
// needs, shippable next to a trained model (the data itself is not
// required at estimation time).
type MetaSpec struct {
	Name  string     `json:"name"`
	Attrs []AttrMeta `json:"attrs"`
}

// Spec exports the meta for serialization.
func (m *TableMeta) Spec() MetaSpec {
	return MetaSpec{Name: m.Name, Attrs: append([]AttrMeta(nil), m.Attrs...)}
}

// NewTableMetaFromSpec restores a TableMeta from its serialized form; the
// per-attribute entry counts and boundaries are trusted as stored. It
// featurizes bound queries once MapColumns has mapped it onto their table.
func NewTableMetaFromSpec(spec MetaSpec) (*TableMeta, error) {
	m := &TableMeta{Name: spec.Name, index: make(map[string]int, len(spec.Attrs))}
	for _, a := range spec.Attrs {
		if a.NEntries < 1 {
			return nil, fmt.Errorf("core: attribute %q has %d entries", a.Name, a.NEntries)
		}
		if a.Boundaries != nil {
			if len(a.Boundaries) != a.NEntries-1 {
				return nil, fmt.Errorf("core: attribute %q has %d boundaries for %d entries", a.Name, len(a.Boundaries), a.NEntries)
			}
			if err := validBoundaries(a, a.Boundaries); err != nil {
				return nil, fmt.Errorf("core: attribute %q: %w", a.Name, err)
			}
		}
		if a.Weights != nil && len(a.Weights) != a.NEntries {
			return nil, fmt.Errorf("core: attribute %q has %d weights for %d entries", a.Name, len(a.Weights), a.NEntries)
		}
		if _, dup := m.index[a.Name]; dup {
			return nil, fmt.Errorf("core: duplicate attribute %q", a.Name)
		}
		m.index[a.Name] = len(m.Attrs)
		m.Attrs = append(m.Attrs, a)
	}
	return m, nil
}

// Attr returns the metadata for the named attribute. Qualified names
// ("table.column") match either exactly or, when the qualifier equals the
// meta's table name, by their column part.
func (m *TableMeta) Attr(name string) (AttrMeta, bool) {
	if i := m.AttrIndex(name); i >= 0 {
		return m.Attrs[i], true
	}
	return AttrMeta{}, false
}

// AttrIndex returns the position of the named attribute in the meta's
// attribute order, or -1. The featurizers do not call it: they read the
// attribute off the column stamp exec.Bind wrote.
func (m *TableMeta) AttrIndex(name string) int {
	if i, ok := m.index[name]; ok {
		return i
	}
	if dot := strings.IndexByte(name, '.'); dot >= 0 && name[:dot] == m.Name {
		if i, ok := m.index[name[dot+1:]]; ok {
			return i
		}
	}
	return -1
}

// NumAttrs returns the number of attributes covered by the meta.
func (m *TableMeta) NumAttrs() int { return len(m.Attrs) }

// Featurizer encodes the selection expression of a query over one table (or
// sub-schema) into a fixed-length feature vector. Implementations are
// stateless and safe for concurrent use.
type Featurizer interface {
	// Name returns the paper's abbreviation for the QFT ("simple", "range",
	// "conjunctive", "complex").
	Name() string
	// Dim returns the feature-vector length. Every Featurize call returns a
	// vector of exactly this length.
	Dim() int
	// Featurize encodes expr. A nil expr (no selection predicates) encodes
	// the match-everything query, and so does an And without children (what
	// SplitWhereByTable hands a table the query does not restrict).
	// Implementations return an error when expr is outside the QFT's
	// supported query class (e.g. disjunctions under Universal Conjunction
	// Encoding). Featurize is make + FeaturizeInto.
	Featurize(expr sqlparse.Expr) ([]float64, error)
	// FeaturizeInto encodes expr into dst, which must have length Dim(); dst
	// is fully overwritten (no caller-side zeroing needed): every attribute's
	// block is written at its fixed offset, which lets callers reuse one
	// buffer across queries. On error dst's contents are unspecified.
	FeaturizeInto(dst []float64, expr sqlparse.Expr) error
}

// ErrUnsupported marks an error that depends only on the query's shape: the
// query is outside the class a featurization — or an estimator built on one —
// encodes (a disjunction under a QFT without Limited Disjunction Encoding, a
// conjunct over two attributes, a sub-schema without a model, ...). The same
// query is refused the same way on every call, and nothing is wrong with the
// estimator; a serving chain passes over it without counting it against the
// stage's health. Test for it with errors.Is.
var ErrUnsupported = errors.New("query outside the estimator's supported class")

// Unsupported marks err with ErrUnsupported. The error's text stays err's.
func Unsupported(err error) error { return unsupported{err} }

type unsupported struct{ error }

func (e unsupported) Unwrap() []error { return []error{e.error, ErrUnsupported} }

// checkDst verifies the FeaturizeInto contract on the destination length.
func checkDst(qft string, dst []float64, dim int) error {
	if len(dst) != dim {
		return fmt.Errorf("core/%s: destination length %d, want %d", qft, len(dst), dim)
	}
	return nil
}

// New constructs the named QFT over meta. Valid names are the paper's
// abbreviations: "simple", "range", "conjunctive", "complex".
func New(name string, meta *TableMeta, opts Options) (Featurizer, error) {
	switch name {
	case "simple":
		return NewSimple(meta), nil
	case "range":
		return NewRange(meta), nil
	case "conjunctive":
		return NewConjunctive(meta, opts), nil
	case "complex":
		return NewComplex(meta, opts), nil
	}
	return nil, fmt.Errorf("core: unknown QFT %q (want simple, range, conjunctive, or complex)", name)
}

// QFTNames lists the QFT names accepted by New, in the paper's order.
func QFTNames() []string { return []string{"simple", "range", "conjunctive", "complex"} }
