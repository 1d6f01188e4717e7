package core

import (
	"fmt"
	"strings"

	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// The by-name grouping: the featurizers' grouping walk as it was before they
// read exec.Bind's column stamp — every predicate's attribute looked up by
// name in the meta's index (a qualified name sliced at its dot), a run of
// equal names costing one lookup, and every predicate of every conjunct
// walked to check that the conjunct names one attribute before the fold
// walked it again. It is kept as the differential oracle of the stamped
// path: vectors, selectivities and error texts.

// byName is the by-name grouping's state: the last name it resolved, and
// its attribute.
type byName struct {
	*scratch
	lastName string
	lastAttr int
}

// byNameGroup chains every top-level conjunct of expr to its attribute, as
// scratch.group does, resolving each predicate's name.
func byNameGroup(sc *scratch, qft string, meta *TableMeta, expr sqlparse.Expr, orErr error) error {
	sc.conj, sc.next = sc.conj[:0], sc.next[:0]
	sc.head, sc.tail = sc.head[:0], sc.tail[:0]
	for range meta.Attrs {
		sc.head = append(sc.head, -1)
		sc.tail = append(sc.tail, -1)
	}
	g := byName{scratch: sc, lastAttr: -1}
	return g.addConjuncts(qft, meta, expr, orErr)
}

func (g *byName) addConjuncts(qft string, meta *TableMeta, expr sqlparse.Expr, orErr error) error {
	switch n := expr.(type) {
	case nil:
		return nil
	case *sqlparse.And:
		for _, k := range n.Kids {
			if err := g.addConjuncts(qft, meta, k, orErr); err != nil {
				return err
			}
		}
		return nil
	case *sqlparse.Or:
		if orErr != nil {
			return orErr
		}
	}
	ai, err := g.conjunctAttr(qft, meta, expr, -1)
	if err != nil {
		return err
	}
	if ai < 0 {
		return Unsupported(fmt.Errorf("core/%s: conjunct %q has no predicates", qft, expr))
	}
	i := int32(len(g.conj))
	g.conj = append(g.conj, expr)
	g.next = append(g.next, -1)
	if t := g.tail[ai]; t >= 0 {
		g.next[t] = i
	} else {
		g.head[ai] = i
	}
	g.tail[ai] = i
	return nil
}

// conjunctAttr resolves the one attribute all predicates under expr
// reference, given that the predicates seen so far reference attribute ai
// (-1: none yet).
func (g *byName) conjunctAttr(qft string, meta *TableMeta, expr sqlparse.Expr, ai int) (int, error) {
	var kids []sqlparse.Expr
	switch n := expr.(type) {
	case *sqlparse.Pred:
		if n.Str != nil {
			return 0, fmt.Errorf("core/%s: unbound string predicate %s", qft, n)
		}
		if g.lastAttr < 0 || n.Attr != g.lastName {
			g.lastName, g.lastAttr = n.Attr, meta.AttrIndex(n.Attr)
		}
		i := g.lastAttr
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
		if ai, err = g.conjunctAttr(qft, meta, k, ai); err != nil {
			return 0, err
		}
	}
	return ai, nil
}

// byNameFeaturizeInto is f.FeaturizeInto with the by-name grouping in front
// of the serving body, which then checks no predicate's attribute again.
func byNameFeaturizeInto(f Featurizer, dst []float64, expr sqlparse.Expr) error {
	if err := checkDst(f.Name(), dst, f.Dim()); err != nil {
		return err
	}
	sc := new(scratch)
	switch f := f.(type) {
	case *Simple:
		if err := byNameGroup(sc, "simple", f.meta, expr, errSimpleOr); err != nil {
			return err
		}
		clear(dst)
		for ai := range f.meta.Attrs {
			if first := sc.head[ai]; first >= 0 {
				p := sc.conj[first].(*sqlparse.Pred)
				block := dst[4*ai : 4*ai+4]
				block[0], block[1], block[2] = opBits(p.Op)
				block[3] = f.meta.Attrs[ai].Normalize(p.Val)
			}
		}
		return nil
	case *Range:
		if err := byNameGroup(sc, "range", f.meta, expr, errRangeOr); err != nil {
			return err
		}
		for i, a := range f.meta.Attrs {
			dst[2*i], dst[2*i+1] = FeaturizeAttrRange(a, sc.attrPreds(i))
		}
		return nil
	case *Conjunctive:
		return byNamePartitioned(sc, &f.partitioned, dst, expr)
	case *Complex:
		return byNamePartitioned(sc, &f.partitioned, dst, expr)
	case *partitioned:
		return byNamePartitioned(sc, f, dst, expr)
	}
	return fmt.Errorf("no by-name oracle for %T", f)
}

func byNamePartitioned(sc *scratch, p *partitioned, dst []float64, expr sqlparse.Expr) error {
	if err := byNameGroup(sc, p.name, p.meta, expr, p.orErr); err != nil {
		return err
	}
	for ai := range p.bounds {
		b := &p.bounds[ai]
		off := p.offsets[ai]
		block := dst[off : off+b.a.NEntries]
		sel := 1.0
		if p.orErr == nil && sc.head[ai] < 0 {
			fillOnes(block)
		} else {
			var err error
			if sel, err = sc.attrCompound(b, nil, -1, sc.attrKids(ai), block); err != nil {
				return err
			}
		}
		if p.opts.AttrSel {
			dst[off+b.a.NEntries] = sel
		}
	}
	return nil
}

// stampByName writes the column stamp of every numeric predicate under expr
// as exec.Bind would against meta's table, resolving each name by name: a
// name meta lacks gets a column meta does not cover, and a name qualified
// with another table the column its unqualified part names in meta (the
// stamp a table of that column layout would give it). A meta without a
// column map is first mapped onto a table whose columns are its attributes,
// in order. It returns expr.
func stampByName(meta *TableMeta, expr sqlparse.Expr) sqlparse.Expr {
	if meta.slots == nil {
		t := table.New(meta.Name)
		for _, a := range meta.Attrs {
			t.MustAddColumn(table.NewColumn(a.Name, []int64{a.Min}))
		}
		meta.MapColumns(t)
	}
	switch n := expr.(type) {
	case *sqlparse.Pred:
		if n.Str != nil {
			return expr
		}
		ai := meta.AttrIndex(n.Attr)
		dot := strings.IndexByte(n.Attr, '.')
		if ai < 0 && dot >= 0 {
			ai = meta.AttrIndex(n.Attr[dot+1:])
		}
		stamp := int32(len(meta.slots) + 1)
		for c, s := range meta.slots {
			if ai >= 0 && int(s) == ai {
				stamp = int32(c + 1)
			}
		}
		if n.Col != stamp || n.Qualified != (dot >= 0) { // as Bind: a stamped node is not written again
			n.Col, n.Qualified = stamp, dot >= 0
		}
	case *sqlparse.And:
		for _, k := range n.Kids {
			stampByName(meta, k)
		}
	case *sqlparse.Or:
		for _, k := range n.Kids {
			stampByName(meta, k)
		}
	}
	return expr
}

// metaOf is the meta f featurizes over, or nil.
func metaOf(f Featurizer) *TableMeta {
	switch f := f.(type) {
	case *Simple:
		return f.meta
	case *Range:
		return f.meta
	case *Conjunctive:
		return f.meta
	case *Complex:
		return f.meta
	case *partitioned:
		return f.meta
	case *WithGroupBy:
		return f.Meta
	}
	return nil
}

// featurize is f.Featurize on expr stamped by name against f's meta.
func featurize(f Featurizer, expr sqlparse.Expr) ([]float64, error) {
	return f.Featurize(stampByName(metaOf(f), expr))
}

// featurizeInto is f.FeaturizeInto on expr stamped by name against f's meta.
func featurizeInto(f Featurizer, dst []float64, expr sqlparse.Expr) error {
	return f.FeaturizeInto(dst, stampByName(metaOf(f), expr))
}

// stampQuery is stampByName for a query over the tables of metas: each
// predicate is stamped against its table's meta, named by its qualifier or,
// in a one-table query, by FROM. It returns q.
func stampQuery(metas map[string]*TableMeta, q *sqlparse.Query) *sqlparse.Query {
	for _, p := range sqlparse.CollectPreds(q.Where) {
		tbl := tableOf(p.Attr, "")
		if tbl == "" && len(q.Tables) == 1 {
			tbl = q.Tables[0]
		}
		if meta, ok := metas[tbl]; ok {
			stampByName(meta, p)
		}
	}
	return q
}
