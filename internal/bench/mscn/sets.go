package mscn

import (
	"fmt"
	"sort"
	"strings"

	"qfe/internal/bench/qft"
	"qfe/internal/catalog"
	"qfe/internal/core"
	"qfe/internal/sqlparse"
)

// Sets is one featurized query: the three vector sets of Section 4.2, a set
// of table vectors, a set of join vectors and a set of predicate vectors.
// All vectors within a set share that set's dimension. An empty set is
// represented by a single zero vector (the original implementation's
// padding convention).
type Sets struct {
	Tables [][]float64
	Joins  [][]float64
	Preds  [][]float64
}

// Mode selects the predicate-set encoding.
type Mode int

const (
	// Original reproduces the unmodified MSCN featurization [12]: one vector
	// per simple predicate, [attr one-hot | op bits | normalized literal].
	// This is "MSCN w/o mods" in Table 2.
	Original Mode = iota
	// PerAttribute is the paper's modification (Section 4.2): all predicates
	// on one attribute are featurized into one per-attribute vector with
	// Universal Conjunction Encoding (or Limited Disjunction Encoding for
	// mixed queries), labeled by the attribute's one-hot id. This is "MSCN +
	// conj" in Table 2.
	PerAttribute
	// Range labels each attribute's one-hot id with the Range Predicate
	// Encoding pair [lo, hi] — the "MSCN x range" cell of Figure 1.
	Range
)

// Encoder encodes queries into Sets over a fixed schema.
type Encoder struct {
	schema *catalog.Schema
	mode   Mode
	opts   core.Options

	attrIDs   map[string]int // "table.column" -> global attribute id
	attrMetas []core.AttrMeta
	maxN      int // widest per-attribute partition vector
	joinIDs   map[string]int
}

// NewEncoder builds the encoder. Attribute and join ids are assigned
// deterministically (sorted), so encodings are stable across process runs.
func NewEncoder(schema *catalog.Schema, metas map[string]*core.TableMeta, mode Mode, opts core.Options) (*Encoder, error) {
	e := &Encoder{
		schema:  schema,
		mode:    mode,
		opts:    opts,
		attrIDs: make(map[string]int),
		joinIDs: make(map[string]int),
	}
	var qualified []string
	byName := make(map[string]core.AttrMeta)
	for _, t := range schema.Tables {
		meta, ok := metas[t]
		if !ok {
			return nil, fmt.Errorf("mscn: no TableMeta for table %q", t)
		}
		for _, a := range meta.Attrs {
			qn := t + "." + a.Name
			qualified = append(qualified, qn)
			byName[qn] = a
			e.maxN = max(e.maxN, a.NEntries)
		}
	}
	sort.Strings(qualified)
	e.attrMetas = make([]core.AttrMeta, len(qualified))
	for i, qn := range qualified {
		e.attrIDs[qn] = i
		e.attrMetas[i] = byName[qn]
	}
	var joinKeys []string
	for _, fk := range schema.FKs {
		joinKeys = append(joinKeys, fk.String())
	}
	sort.Strings(joinKeys)
	for i, k := range joinKeys {
		e.joinIDs[k] = i
	}
	return e, nil
}

// TableDim returns the length of each table-set vector (one-hot over schema
// tables).
func (e *Encoder) TableDim() int { return len(e.schema.Tables) }

// JoinDim returns the length of each join-set vector (one-hot over schema
// foreign-key edges).
func (e *Encoder) JoinDim() int { return max(len(e.joinIDs), 1) }

// PredDim returns the length of each predicate-set vector.
func (e *Encoder) PredDim() int {
	switch e.mode {
	case Original:
		return len(e.attrIDs) + 3 + 1 // attr one-hot | {=,>,<} | literal
	case Range:
		return len(e.attrIDs) + 2 // attr one-hot | lo | hi
	}
	d := len(e.attrIDs) + e.maxN
	if e.opts.AttrSel {
		d++
	}
	return d
}

// Encode encodes q into the three sets. Empty sets are represented by a
// single zero vector, matching the original implementation's padding.
func (e *Encoder) Encode(q *sqlparse.Query) (*Sets, error) {
	sets := &Sets{}
	for _, t := range q.Tables {
		vec := make([]float64, e.TableDim())
		found := false
		for i, st := range e.schema.Tables {
			if st == t {
				vec[i], found = 1, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("mscn: query table %q not in schema", t)
		}
		sets.Tables = append(sets.Tables, vec)
	}

	for _, j := range q.Joins {
		vec := make([]float64, e.JoinDim())
		id, ok := e.joinIDs[catalog.ForeignKey{FromTable: j.LeftTable, FromCol: j.LeftCol, ToTable: j.RightTable, ToCol: j.RightCol}.String()]
		if !ok {
			// Try the reversed orientation; join predicates are symmetric.
			id, ok = e.joinIDs[catalog.ForeignKey{FromTable: j.RightTable, FromCol: j.RightCol, ToTable: j.LeftTable, ToCol: j.LeftCol}.String()]
		}
		if !ok {
			return nil, fmt.Errorf("mscn: join %s is not a schema foreign-key edge", j)
		}
		vec[id] = 1
		sets.Joins = append(sets.Joins, vec)
	}
	if len(sets.Joins) == 0 {
		sets.Joins = [][]float64{make([]float64, e.JoinDim())}
	}

	preds, err := e.encodePreds(q)
	if err != nil {
		return nil, err
	}
	sets.Preds = preds
	if len(sets.Preds) == 0 {
		sets.Preds = [][]float64{make([]float64, e.PredDim())}
	}
	return sets, nil
}

func (e *Encoder) encodePreds(q *sqlparse.Query) ([][]float64, error) {
	// qualify names an attribute by its global id's key, "table.column": a
	// bare name is the one table's of a single-table query.
	qualify := func(attr string) (string, error) {
		if strings.Contains(attr, ".") {
			return attr, nil
		}
		if len(q.Tables) != 1 {
			return "", fmt.Errorf("mscn: unqualified attribute %q in multi-table query", attr)
		}
		return q.Tables[0] + "." + attr, nil
	}
	id := func(qn string) (int, error) {
		id, ok := e.attrIDs[qn]
		if !ok {
			return 0, fmt.Errorf("mscn: unknown attribute %q", qn)
		}
		return id, nil
	}
	base := len(e.attrIDs)

	if e.mode == Original {
		if !sqlparse.IsConjunctive(q.Where) {
			return nil, fmt.Errorf("mscn: original MSCN featurization does not support disjunctions")
		}
		var out [][]float64
		for _, p := range sqlparse.CollectPreds(q.Where) {
			qn, err := qualify(p.Attr)
			if err != nil {
				return nil, err
			}
			ai, err := id(qn)
			if err != nil {
				return nil, err
			}
			vec := make([]float64, e.PredDim())
			vec[ai] = 1
			vec[base], vec[base+1], vec[base+2] = qft.OpBits(p.Op)
			vec[base+3] = e.attrMetas[ai].Normalize(p.Val)
			out = append(out, vec)
		}
		return out, nil
	}

	// Per-attribute modes: group all predicates on one attribute — told apart
	// by qualified name, so "A1" and "forest.A1" are one — into one compound
	// expression and featurize it with Algorithm 1/2 (or Range Predicate
	// Encoding for Range).
	compounds, err := sqlparse.CompoundsBy(q.Where, qualify)
	if err != nil {
		return nil, fmt.Errorf("mscn: %w", err)
	}
	var out [][]float64
	for _, cp := range compounds {
		ai, err := id(cp.Attr)
		if err != nil {
			return nil, err
		}
		a := e.attrMetas[ai]
		vec := make([]float64, e.PredDim())
		vec[ai] = 1
		if e.mode == Range {
			if !sqlparse.IsConjunctive(cp.Expr) {
				return nil, fmt.Errorf("mscn: range mode does not support disjunctions")
			}
			vec[base], vec[base+1] = qft.FeaturizeAttrRange(a, sqlparse.CollectPreds(cp.Expr))
			out = append(out, vec)
			continue
		}
		// The partition vector, right-padded with zeros up to maxN.
		part, sel, err := core.FeaturizeAttrCompound(a, cp.Expr)
		if err != nil {
			return nil, err
		}
		copy(vec[base:], part)
		if e.opts.AttrSel {
			vec[len(vec)-1] = sel
		}
		out = append(out, vec)
	}
	return out, nil
}
