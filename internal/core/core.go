// Package core implements the paper's primary contribution: query
// featurization techniques (QFTs) that encode the selection predicates of a
// COUNT(*) query into a fixed-length numerical feature vector for ML-based
// cardinality estimation.
//
// The paper's two encodings are provided, under its abbreviations
// (Section 5):
//
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
// The baselines the paper measures them against, Singular Predicate Encoding
// ("simple", Section 2.1.1) and Range Predicate Encoding ("range", Section
// 3.1), are built only by the experiment harness and live with it, in
// internal/bench/qft, over this package's exports.
//
// All QFTs are model-independent: they emit plain []float64 vectors consumed
// unchanged by the gradient-boosting model in internal/ml/gb and the
// experiment harness's feed-forward network (and, per attribute, its MSCN).
// The package also provides SplitWhereByTable, a join query's WHERE split per
// table. A TableMeta fixes each attribute's partitions: Algorithm 1's uniform
// ones, or any others a spec carries (the Section 3.2 extensions, whose
// policies live in the experiment harness). The lossless-featurization
// decoder that verifies Definition 3.1 and Lemma 3.2 lives with its tests
// (decode_test.go).
//
// The featurizers read which attribute a predicate constrains off the column
// stamp exec.Bind writes (sqlparse.Pred.Col), through TableMeta.Slot: a query
// is bound before it is featurized, and a predicate nobody bound is refused
// as Unsupported.
package core

import (
	"errors"
	"fmt"
	"math/bits"
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

// BucketRange returns the closed value interval [lo, hi] that bucket idx
// represents: under uniform partitions bucket k holds the values v with
// floor((v-min) / (max-min+1) * n_A) = k, the index formula of Algorithm 1,
// line 4; with explicit Boundaries it ends at Boundaries[idx]. It is the one
// definition of a partition: the featurizers tabulate it, and the lossless
// decoder reads it.
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
	d, n := uint64(a.DomainSize()), uint64(a.NEntries)
	return a.Min + int64(ceilMulDiv(uint64(idx), d, n)), a.Min + int64(ceilMulDiv(uint64(idx+1), d, n)) - 1
}

// ceilMulDiv returns ceil(i*d/n) for i <= n, the product taken in 128 bits:
// on a wide domain i*d overflows int64.
func ceilMulDiv(i, d, n uint64) uint64 {
	hi, lo := bits.Mul64(i, d)
	q, r := bits.Div64(hi, lo, n)
	if r != 0 {
		q++
	}
	return q
}

// Normalize maps val into [0, 1] relative to the attribute domain, the
// literal encoding of the harness's baselines, Singular Predicate Encoding
// and Range Predicate Encoding (Section 2.1.1). Out-of-domain values are
// clamped — by comparison, before any arithmetic that could wrap at the
// int64 extremes.
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

// Slot returns the attribute p constrains, read off its column stamp, or
// the error the QFT named qft refuses p with: a string literal exec.Bind did
// not rewrite, a predicate nobody bound, a meta MapColumns has not mapped
// onto a database's columns, or a column the meta does not cover. It is the
// featurizers' one way from a predicate to its attribute.
func (m *TableMeta) Slot(qft string, p *sqlparse.Pred) (int, error) {
	if p.Str != nil {
		return 0, fmt.Errorf("core/%s: unbound string predicate %s", qft, p)
	}
	if p.Col == 0 {
		return 0, Unsupported(fmt.Errorf("core/%s: predicate %s is not bound to a column (exec.Bind)", qft, p))
	}
	if m.slots == nil {
		return 0, fmt.Errorf("core/%s: table %q is not mapped onto a database's columns (TableMeta.MapColumns)", qft, m.Name)
	}
	i := m.slot(p)
	if i < 0 {
		return 0, Unsupported(fmt.Errorf("core/%s: unknown attribute %q", qft, p.Attr))
	}
	return i, nil
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

// Normalized fills unset fields with the paper's defaults: a zero
// MaxEntriesPerAttr means 64, not one partition per attribute. Estimator
// constructors call this so the zero value of Options is usable.
func (o Options) Normalized() Options {
	if o.MaxEntriesPerAttr <= 0 {
		o.MaxEntriesPerAttr = 64
	}
	return o
}

// newTableMeta is the one constructor of a TableMeta: it indexes attrs by
// name, refuses a meta a featurizer cannot run on, and, given the table the
// attributes were read off, maps its columns. Every attribute needs
// 1 <= NEntries <= its domain size; Boundaries, when set, are NEntries-1
// strictly ascending values in [Min, Max); Weights, when set, hold NEntries
// shares; and no name occurs twice. The error names the attribute.
func newTableMeta(name string, attrs []AttrMeta, t *table.Table) (*TableMeta, error) {
	m := &TableMeta{Name: name, Attrs: attrs, index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if err := a.check(); err != nil {
			return nil, fmt.Errorf("core: attribute %q %w", a.Name, err)
		}
		if _, dup := m.index[a.Name]; dup {
			return nil, fmt.Errorf("core: duplicate attribute %q", a.Name)
		}
		m.index[a.Name] = i
	}
	if t != nil {
		m.MapColumns(t)
	}
	return m, nil
}

// check is newTableMeta's contract for one attribute.
func (a AttrMeta) check() error {
	if a.NEntries < 1 || int64(a.NEntries) > a.DomainSize() {
		return fmt.Errorf("has %d entries for domain [%d, %d]", a.NEntries, a.Min, a.Max)
	}
	if a.Boundaries != nil && len(a.Boundaries) != a.NEntries-1 {
		return fmt.Errorf("has %d boundaries for %d entries", len(a.Boundaries), a.NEntries)
	}
	for i, b := range a.Boundaries {
		if b < a.Min || b >= a.Max || i > 0 && b <= a.Boundaries[i-1] {
			return fmt.Errorf("boundary %d (%d) is not ascending in [%d, %d)", i, b, a.Min, a.Max)
		}
	}
	if a.Weights != nil && len(a.Weights) != a.NEntries {
		return fmt.Errorf("has %d weights for %d entries", len(a.Weights), a.NEntries)
	}
	return nil
}

// mustMeta is newTableMeta for the constructors without an error result:
// they panic with its error at construction, never later in FeaturizeInto.
func mustMeta(m *TableMeta, err error) *TableMeta {
	if err != nil {
		panic(err)
	}
	return m
}

// NewTableMeta derives featurization metadata from a materialized table,
// reading each column's min/max statistics, with Algorithm 1's uniform
// partitions. n is the maximum number of per-attribute entries
// (Options.MaxEntriesPerAttr). It panics on a column whose domain an int64
// cannot count.
func NewTableMeta(t *table.Table, n int) *TableMeta {
	var attrs []AttrMeta
	for _, col := range t.Columns() {
		attrs = append(attrs, uniformAttr(AttrMeta{Name: col.Name, Min: col.Min(), Max: col.Max()}, n))
	}
	return mustMeta(newTableMeta(t.Name, attrs, t))
}

// NewTableMetaWeighted derives featurization metadata like NewTableMeta and
// additionally records each partition's row-frequency share, upgrading the
// appended selectivity estimate from the uniformity assumption to a
// frequency-weighted one (see AttrMeta.Weights).
func NewTableMetaWeighted(t *table.Table, n int) *TableMeta {
	m := NewTableMeta(t, n)
	AttachWeights(m, t)
	return m
}

// AttachWeights computes and stores per-partition row-frequency shares on
// every attribute of meta from the table's data, placing each value in its
// partition as the featurizers place a literal. The meta's attribute names
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
		b := tabulate(a)
		w := make([]float64, a.NEntries)
		for _, v := range col.Vals {
			if v >= a.Min && v <= a.Max {
				w[b.of(v)]++
			}
		}
		for k := range w {
			w[k] /= rows
		}
		a.Weights = w
	}
}

// NewTableMetaFromAttrs builds metadata with Algorithm 1's uniform
// partitions from explicit attribute bounds; used when the raw data is not
// materialized. It featurizes bound queries once MapColumns has mapped it
// onto their table, and panics on attributes newTableMeta refuses.
func NewTableMetaFromAttrs(name string, attrs []AttrMeta, n int) *TableMeta {
	var own []AttrMeta
	for _, a := range attrs {
		own = append(own, uniformAttr(a, n))
	}
	return mustMeta(newTableMeta(name, own, nil))
}

// uniformAttr sets a's entry count to n_A = min(n, max(A)-min(A)+1)
// (Section 3.2), n being at least 1.
func uniformAttr(a AttrMeta, n int) AttrMeta {
	a.NEntries = max(n, 1)
	if d := a.DomainSize(); d < int64(a.NEntries) {
		a.NEntries = int(d)
	}
	return a
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

// NewTableMetaFromSpec builds a TableMeta from its serialized form, whose
// per-attribute entry counts, boundaries and weights are taken as given: how
// a snapshot's metas are restored, and how a partitioning policy other than
// Algorithm 1's hands its partitions to the featurizers. It featurizes bound
// queries once MapColumns has mapped it onto their table.
func NewTableMetaFromSpec(spec MetaSpec) (*TableMeta, error) {
	return newTableMeta(spec.Name, append([]AttrMeta(nil), spec.Attrs...), nil)
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
	// Name returns the paper's abbreviation for the QFT: "conjunctive" or
	// "complex" here, "simple" or "range" for the harness's baselines
	// (internal/bench/qft).
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
// abbreviations for its two encodings: "conjunctive" and "complex".
func New(name string, meta *TableMeta, opts Options) (Featurizer, error) {
	switch name {
	case "conjunctive":
		return NewConjunctive(meta, opts), nil
	case "complex":
		return NewComplex(meta, opts), nil
	}
	return nil, fmt.Errorf("core: unknown QFT %q (want conjunctive or complex)", name)
}
