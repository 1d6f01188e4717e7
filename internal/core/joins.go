package core

import (
	"fmt"
	"slices"
	"sort"

	"qfe/internal/catalog"
	"qfe/internal/sqlparse"
)

// This file implements the join adapters of Sections 2.1.2 and 4.2: the
// global-model encoding (per-table featurizations concatenated with the
// table bit-vector) and the MSCN three-set encoding with pluggable
// per-attribute QFTs.

// GlobalFeaturizer encodes multi-table queries for a single global model
// (Section 2.1.2): the per-table featurizations of the query's selection
// predicates are concatenated in schema order, followed by the binary
// table vector (entry i set when table i participates in the join).
//
// Tables that are part of the query but carry no predicates contribute
// their QFT's no-predicate encoding; tables absent from the query
// contribute all-zero blocks, which together with the table vector keeps
// distinct queries distinct.
type GlobalFeaturizer struct {
	Schema *catalog.Schema
	// QFTs maps each schema table to its per-table featurizer. All tables
	// must use the same QFT family for the encoding to be meaningful.
	QFTs map[string]Featurizer
}

// NewGlobalFeaturizer builds per-table featurizers of the named QFT over the
// given metas, one per schema table.
func NewGlobalFeaturizer(schema *catalog.Schema, metas map[string]*TableMeta, qft string, opts Options) (*GlobalFeaturizer, error) {
	g := &GlobalFeaturizer{Schema: schema, QFTs: make(map[string]Featurizer, len(schema.Tables))}
	for _, t := range schema.Tables {
		meta, ok := metas[t]
		if !ok {
			return nil, fmt.Errorf("core: no TableMeta for table %q", t)
		}
		f, err := New(qft, meta, opts)
		if err != nil {
			return nil, err
		}
		g.QFTs[t] = f
	}
	return g, nil
}

// Dim returns the global feature-vector length: the per-table dims plus one
// table-vector entry per schema table.
func (g *GlobalFeaturizer) Dim() int {
	dim := len(g.Schema.Tables)
	for _, t := range g.Schema.Tables {
		dim += g.QFTs[t].Dim()
	}
	return dim
}

// Featurize encodes the query. Selection conjuncts are routed to their
// table's featurizer; the trailing block is the table bit-vector.
func (g *GlobalFeaturizer) Featurize(q *sqlparse.Query) ([]float64, error) {
	vec := make([]float64, g.Dim())
	if err := g.FeaturizeInto(vec, q); err != nil {
		return nil, err
	}
	return vec, nil
}

// FeaturizeInto is Featurize writing into dst (length Dim(), fully
// overwritten): each table's block sits at its fixed schema-order offset,
// absent tables zero theirs, and the table bit-vector is written in place.
func (g *GlobalFeaturizer) FeaturizeInto(dst []float64, q *sqlparse.Query) error {
	if err := checkDst("global", dst, g.Dim()); err != nil {
		return err
	}
	tables := g.Schema.Tables
	sc := getScratch()
	defer putScratch(sc)
	if len(sc.ands) < len(tables) {
		sc.ands = make([]sqlparse.And, len(tables))
	}
	if err := SplitWhereByTable(q, tables, sc.ands); err != nil {
		return err
	}
	off, bits := 0, dst[len(dst)-len(tables):]
	for i, t := range tables {
		f := g.QFTs[t]
		block := dst[off : off+f.Dim()]
		off += len(block)
		if !slices.Contains(q.Tables, t) {
			clear(block)
			bits[i] = 0
			continue
		}
		if err := f.FeaturizeInto(block, &sc.ands[i]); err != nil {
			return fmt.Errorf("core: table %q: %w", t, err)
		}
		bits[i] = 1
	}
	return nil
}

// SplitWhereByTable splits the top-level conjunction of a multi-table
// query's WHERE by table: dst[i].Kids becomes the conjuncts over tables[i],
// so &dst[i] is that table's selection (an And of one conjunct, or of none —
// no predicates — is read by every featurizer as what it says). dst must be
// at least len(tables) long; its Kids are overwritten and their capacity
// reused, so a caller that keeps dst across calls splits without allocating.
// Every conjunct must reference exactly one table; conjuncts over tables
// not listed are dropped. For a single-table query unqualified attributes
// are allowed and map to that table.
func SplitWhereByTable(q *sqlparse.Query, tables []string, dst []sqlparse.And) error {
	single := ""
	if len(q.Tables) == 1 {
		single = q.Tables[0]
	}
	for i := range tables {
		dst[i].Kids = dst[i].Kids[:0]
	}
	var one [1]sqlparse.Expr
	kids := one[:0]
	if and, ok := q.Where.(*sqlparse.And); ok {
		kids = and.Kids
	} else if q.Where != nil {
		kids = append(kids, q.Where)
	}
	for _, kid := range kids {
		tbl, err := conjunctTable(kid, kid, single, "")
		if err != nil {
			return err
		}
		if i := slices.Index(tables, tbl); i >= 0 {
			dst[i].Kids = append(dst[i].Kids, kid)
		}
	}
	return nil
}

// conjunctTable resolves the one table every predicate under expr (part of
// the top-level conjunct conj) references, given that the predicates seen so
// far reference tbl ("": none yet).
func conjunctTable(conj, expr sqlparse.Expr, single, tbl string) (string, error) {
	var kids []sqlparse.Expr
	switch n := expr.(type) {
	case *sqlparse.Pred:
		pt := tableOf(n.Attr, single)
		if pt == "" {
			return "", fmt.Errorf("core: unqualified attribute %q in multi-table query", n.Attr)
		}
		if tbl != "" && tbl != pt {
			return "", Unsupported(fmt.Errorf("core: conjunct %q spans tables %q and %q", conj, tbl, pt))
		}
		return pt, nil
	case *sqlparse.And:
		kids = n.Kids
	case *sqlparse.Or:
		kids = n.Kids
	}
	for _, k := range kids {
		var err error
		if tbl, err = conjunctTable(conj, k, single, tbl); err != nil {
			return "", err
		}
	}
	return tbl, nil
}

func tableOf(attr, single string) string {
	for i := 0; i < len(attr); i++ {
		if attr[i] == '.' {
			return attr[:i]
		}
	}
	return single
}

// MSCNSets is the three-part featurization consumed by the MSCN model
// (Section 4.2): a set of table vectors, a set of join vectors, and a set of
// predicate vectors. Each inner vector within one set has the same length.
type MSCNSets struct {
	Tables [][]float64
	Joins  [][]float64
	Preds  [][]float64
}

// MSCNMode selects the predicate-set encoding.
type MSCNMode int

const (
	// MSCNOriginal reproduces the unmodified MSCN featurization [12]: one
	// vector per simple predicate, [attr one-hot | op bits | normalized
	// literal]. This is "MSCN w/o mods" in Table 2.
	MSCNOriginal MSCNMode = iota
	// MSCNPerAttribute is the paper's modification (Section 4.2): all
	// predicates referencing the same attribute are featurized into one
	// per-attribute vector with Universal Conjunction Encoding (or Limited
	// Disjunction Encoding for mixed queries), labeled by the attribute's
	// one-hot id. This is "MSCN + conj" in Table 2.
	MSCNPerAttribute
	// MSCNRange labels each attribute's one-hot id with the Range Predicate
	// Encoding pair [lo, hi] — the "MSCN x range" cell of Figure 1.
	MSCNRange
)

// MSCNFeaturizer encodes queries into MSCNSets over a fixed schema.
type MSCNFeaturizer struct {
	Schema *catalog.Schema
	Metas  map[string]*TableMeta
	Mode   MSCNMode
	Opts   Options

	attrIDs    map[string]int // "table.column" -> global attribute id
	attrList   []string
	attrMetas  []AttrMeta
	attrBounds []buckets // attrMetas[id]'s partitioning, tabulated once
	maxN       int       // widest per-attribute partition vector
	joinIDs    map[string]int
}

// NewMSCNFeaturizer builds the featurizer. Attribute and join ids are
// assigned deterministically (sorted), so featurizations are stable across
// process runs.
func NewMSCNFeaturizer(schema *catalog.Schema, metas map[string]*TableMeta, mode MSCNMode, opts Options) (*MSCNFeaturizer, error) {
	m := &MSCNFeaturizer{
		Schema:  schema,
		Metas:   metas,
		Mode:    mode,
		Opts:    opts,
		attrIDs: make(map[string]int),
		joinIDs: make(map[string]int),
	}
	var qualified []string
	byName := make(map[string]AttrMeta)
	for _, t := range schema.Tables {
		meta, ok := metas[t]
		if !ok {
			return nil, fmt.Errorf("core: no TableMeta for table %q", t)
		}
		for _, a := range meta.Attrs {
			qn := t + "." + a.Name
			qualified = append(qualified, qn)
			byName[qn] = a
			if a.NEntries > m.maxN {
				m.maxN = a.NEntries
			}
		}
	}
	sort.Strings(qualified)
	m.attrList = qualified
	m.attrMetas = make([]AttrMeta, len(qualified))
	m.attrBounds = make([]buckets, len(qualified))
	for i, qn := range qualified {
		m.attrIDs[qn] = i
		m.attrMetas[i] = byName[qn]
		m.attrBounds[i] = tabulate(&m.attrMetas[i])
	}
	var joinKeys []string
	for _, fk := range schema.FKs {
		joinKeys = append(joinKeys, fk.String())
	}
	sort.Strings(joinKeys)
	for i, k := range joinKeys {
		m.joinIDs[k] = i
	}
	return m, nil
}

// TableDim returns the length of each table-set vector (one-hot over schema
// tables).
func (m *MSCNFeaturizer) TableDim() int { return len(m.Schema.Tables) }

// JoinDim returns the length of each join-set vector (one-hot over schema
// foreign-key edges).
func (m *MSCNFeaturizer) JoinDim() int {
	if len(m.joinIDs) == 0 {
		return 1
	}
	return len(m.joinIDs)
}

// PredDim returns the length of each predicate-set vector.
func (m *MSCNFeaturizer) PredDim() int {
	switch m.Mode {
	case MSCNOriginal:
		return len(m.attrIDs) + 3 + 1 // attr one-hot | {=,>,<} | literal
	case MSCNRange:
		return len(m.attrIDs) + 2 // attr one-hot | lo | hi
	}
	d := len(m.attrIDs) + m.maxN
	if m.Opts.AttrSel {
		d++
	}
	return d
}

// Featurize encodes q into the three MSCN sets. Empty sets are represented
// by a single zero vector, matching the original implementation's padding.
func (m *MSCNFeaturizer) Featurize(q *sqlparse.Query) (*MSCNSets, error) {
	sets := &MSCNSets{}

	for _, t := range q.Tables {
		found := false
		vec := make([]float64, m.TableDim())
		for i, st := range m.Schema.Tables {
			if st == t {
				vec[i] = 1
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("core: query table %q not in schema", t)
		}
		sets.Tables = append(sets.Tables, vec)
	}

	for _, j := range q.Joins {
		vec := make([]float64, m.JoinDim())
		id, ok := m.joinIDs[catalog.ForeignKey{FromTable: j.LeftTable, FromCol: j.LeftCol, ToTable: j.RightTable, ToCol: j.RightCol}.String()]
		if !ok {
			// Try the reversed orientation; join predicates are symmetric.
			id, ok = m.joinIDs[catalog.ForeignKey{FromTable: j.RightTable, FromCol: j.RightCol, ToTable: j.LeftTable, ToCol: j.LeftCol}.String()]
		}
		if !ok {
			return nil, fmt.Errorf("core: join %s is not a schema foreign-key edge", j)
		}
		vec[id] = 1
		sets.Joins = append(sets.Joins, vec)
	}
	if len(sets.Joins) == 0 {
		sets.Joins = [][]float64{make([]float64, m.JoinDim())}
	}

	preds, err := m.featurizePreds(q)
	if err != nil {
		return nil, err
	}
	sets.Preds = preds
	if len(sets.Preds) == 0 {
		sets.Preds = [][]float64{make([]float64, m.PredDim())}
	}
	return sets, nil
}

func (m *MSCNFeaturizer) featurizePreds(q *sqlparse.Query) ([][]float64, error) {
	single := ""
	if len(q.Tables) == 1 {
		single = q.Tables[0]
	}
	qualify := func(attr string) (string, error) {
		if tableOf(attr, "") != "" {
			return attr, nil
		}
		if single == "" {
			return "", fmt.Errorf("core: unqualified attribute %q in multi-table query", attr)
		}
		return single + "." + attr, nil
	}

	if m.Mode == MSCNOriginal {
		if !sqlparse.IsConjunctive(q.Where) {
			return nil, fmt.Errorf("core: original MSCN featurization does not support disjunctions")
		}
		var out [][]float64
		for _, p := range sqlparse.CollectPreds(q.Where) {
			qn, err := qualify(p.Attr)
			if err != nil {
				return nil, err
			}
			id, ok := m.attrIDs[qn]
			if !ok {
				return nil, fmt.Errorf("core: unknown attribute %q", qn)
			}
			vec := make([]float64, m.PredDim())
			vec[id] = 1
			eq, gt, lt := opBits(p.Op)
			base := len(m.attrIDs)
			vec[base], vec[base+1], vec[base+2] = eq, gt, lt
			vec[base+3] = m.attrMetas[id].Normalize(p.Val)
			out = append(out, vec)
		}
		return out, nil
	}

	// Per-attribute modes: group all predicates on one attribute into one
	// compound expression and featurize it with Algorithm 1/2 (or Range
	// Predicate Encoding for MSCNRange).
	compounds, err := sqlparse.CompoundPredicates(q.Where)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var out [][]float64
	for _, cp := range compounds {
		qn, err := qualify(cp.Attr)
		if err != nil {
			return nil, err
		}
		id, ok := m.attrIDs[qn]
		if !ok {
			return nil, fmt.Errorf("core: unknown attribute %q", qn)
		}
		vec := make([]float64, m.PredDim())
		vec[id] = 1
		if m.Mode == MSCNRange {
			if !sqlparse.IsConjunctive(cp.Expr) {
				return nil, fmt.Errorf("core: MSCN range mode does not support disjunctions")
			}
			lo, hi := FeaturizeAttrRange(m.attrMetas[id], sqlparse.CollectPreds(cp.Expr))
			vec[len(m.attrIDs)] = lo
			vec[len(m.attrIDs)+1] = hi
			out = append(out, vec)
			continue
		}
		// The partition vector, right-padded with zeros up to maxN.
		b := &m.attrBounds[id]
		sel, err := compound(b, cp.Expr, vec[len(m.attrIDs):len(m.attrIDs)+b.a.NEntries])
		if err != nil {
			return nil, err
		}
		if m.Opts.AttrSel {
			vec[len(vec)-1] = sel
		}
		out = append(out, vec)
	}
	return out, nil
}
