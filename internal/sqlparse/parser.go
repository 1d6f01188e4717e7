package sqlparse

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Parse parses a COUNT(*) SQL query of the paper's query class.
//
// Supported grammar (keywords are case-insensitive):
//
//	SELECT count(*) FROM t1 [, t2 ...]
//	[WHERE <boolean expression over simple and join predicates>]
//	[GROUP BY a1 [, a2 ...]] [;]
//
// Join predicates (column = column) may appear only in the top-level
// conjunction of the WHERE clause, mirroring the paper's assumption that
// tables are joined along key/foreign-key relationships while selections
// carry the AND/OR structure.
//
// Identifiers are ASCII ([A-Za-z_][A-Za-z0-9_]*). Literals must be integers
// or strings; decimal attributes are expected to be fixed-point scaled at
// load time (see package table).
//
// The returned query is ordinary garbage-collected memory that the caller
// owns; its names and string literals are substrings of src wherever the
// source spells them contiguously.
func Parse(src string) (*Query, error) { return parse(nil, src) }

// parse parses src with a pooled parser, into arena's memory or, when arena
// is nil, into the heap's.
func parse(arena *Arena, src string) (*Query, error) {
	p := parserPool.Get().(*parser)
	p.arena = arena
	q, err := p.parse(src)
	p.release()
	return q, err
}

// MustParse is Parse but panics on error; intended for tests and static
// workload definitions.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// maxExprDepth bounds parenthesis nesting in WHERE expressions. The parser
// is recursive-descent, so unchecked nesting converts attacker-sized input
// into stack growth; real workload queries nest a handful of levels at most.
const maxExprDepth = 100

// parser is a recursive-descent parser over the token stream. Its buffers
// are scratch that never outlives one Parse, so parsers are pooled; what a
// parse returns (the Query, the predicate slab, one exactly-sized Kids per
// AND/OR node) is allocated fresh, or carved from the parse's arena.
type parser struct {
	arena *Arena // where the AST goes; nil for the heap

	src   string
	toks  []token
	pos   int
	depth int // current parenthesis nesting inside the WHERE expression

	// ncmp is the lexer's count of comparison tokens, an upper bound on the
	// predicate leaves of the query; preds is the not yet used tail of the
	// slab of that size the leaves are carved from.
	ncmp  int
	preds []Pred
	// kids holds the children of every AND/OR node under construction, the
	// innermost node's on top.
	kids []Expr
	// joinRight holds the right-hand columns of the join leaves, indexed by
	// the leaf's Val.
	joinRight []string
}

var parserPool = sync.Pool{New: func() any { return new(parser) }}

// maxPooledTokens bounds what a pooled parser may pin: one whose token
// buffer grew past it on a huge input is left to the collector instead. The
// other buffers hold at most one entry per predicate, so this bounds them too.
const maxPooledTokens = 1024

func (p *parser) parse(src string) (*Query, error) {
	p.src = src
	// Tokens of this grammar average about three source bytes, so half the
	// source length holds them all without the buffer regrowing.
	if need := len(src)/2 + 1; cap(p.toks) < need {
		p.toks = make([]token, 0, need)
	}
	if err := p.lex(); err != nil {
		return nil, err
	}
	return p.parseQuery()
}

// release returns p to the pool holding no reference to the source or to
// the AST it built.
func (p *parser) release() {
	if cap(p.toks) > maxPooledTokens {
		return
	}
	clear(p.kids[:cap(p.kids)])
	clear(p.joinRight)
	*p = parser{toks: p.toks[:0], kids: p.kids[:0], joinRight: p.joinRight[:0]}
	parserPool.Put(p)
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) text(t token) string { return p.src[t.lo:t.end] }

// describe renders a token for error messages: the quoted text (a string
// literal's value, not its spelling) or "end of input".
func (p *parser) describe(t token) string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return strconv.Quote(stringText(p.text(t)))
	}
	return strconv.Quote(p.text(t))
}

// expectKeyword consumes an identifier token spelling the lower-case kw in
// any case.
func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokIdent || !isKeyword(p.text(t), kw) {
		return fmt.Errorf("sqlparse: expected %s, got %s at offset %d", strings.ToUpper(kw), p.describe(t), t.lo)
	}
	return nil
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("sqlparse: expected %s, got %s at offset %d", what, p.describe(t), t.lo)
	}
	return t, nil
}

func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && isKeyword(p.text(t), kw)
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("count"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen, "("); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokStar, "*"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}

	q := p.newQuery(p.fromLen())
	for {
		t, err := p.expect(tokIdent, "table name")
		if err != nil {
			return nil, err
		}
		q.Tables = append(q.Tables, p.text(t))
		if p.peek().kind != tokComma {
			break
		}
		p.pos++
	}

	if p.peekKeyword("where") {
		p.pos++
		expr, err := p.parseNary(false)
		if err != nil {
			return nil, err
		}
		where, joins, err := p.splitJoins(expr)
		if err != nil {
			return nil, err
		}
		q.Where = where
		q.Joins = joins
	}

	if p.peekKeyword("group") {
		p.pos++
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			name, err := p.parseColumnName()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, name)
			if p.peek().kind != tokComma {
				break
			}
			p.pos++
		}
	}

	if p.peek().kind == tokSemi {
		p.pos++
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, fmt.Errorf("sqlparse: trailing input starting with %s at offset %d", p.describe(t), t.lo)
	}
	if err := validateJoins(q); err != nil {
		return nil, err
	}
	return q, nil
}

// fromLen is the length of the FROM list starting at the current token: its
// first name plus one per ", name" that follows.
func (p *parser) fromLen() int {
	n := 1
	for i := p.pos + 1; i+1 < len(p.toks) && p.toks[i].kind == tokComma && p.toks[i+1].kind == tokIdent; i += 2 {
		n++
	}
	return n
}

// parseNary parses a disjunction of conjunctions (isAnd false) or a
// conjunction of primaries (isAnd true). The operands collect on p.kids —
// an operand that is itself a node of the same kind contributes its
// children, so nesting flattens — and are copied once into a Kids slice of
// exactly their number; a single operand is returned as it is.
func (p *parser) parseNary(isAnd bool) (Expr, error) {
	kw := "or"
	if isAnd {
		kw = "and"
	}
	base := len(p.kids)
	for {
		var e Expr
		var err error
		if isAnd {
			e, err = p.parsePrimary()
		} else {
			e, err = p.parseNary(true)
		}
		if err != nil {
			return nil, err
		}
		if n, ok := e.(*And); ok && isAnd {
			p.kids = append(p.kids, n.Kids...)
		} else if n, ok := e.(*Or); ok && !isAnd {
			p.kids = append(p.kids, n.Kids...)
		} else {
			p.kids = append(p.kids, e)
		}
		if !p.peekKeyword(kw) {
			break
		}
		p.pos++
	}
	top := p.kids[base:]
	p.kids = p.kids[:base]
	e := top[0]
	if len(top) > 1 {
		e = p.newNode(top, isAnd)
	}
	return e, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	// The common leaf, "column op integer", is made straight from its three
	// tokens: what parseComparison would make of them. (A tokOp is never the
	// final tokEOF, so the token after it exists.)
	if t.kind == tokIdent && p.toks[p.pos+1].kind == tokOp && p.toks[p.pos+2].kind == tokInt {
		op, lit := p.toks[p.pos+1], p.toks[p.pos+2]
		p.pos += 3
		return p.newPred(Pred{Attr: p.text(t), Op: CmpOp(op.val), Val: lit.val}), nil
	}
	if t.kind == tokLParen {
		p.depth++
		if p.depth > maxExprDepth {
			return nil, fmt.Errorf("sqlparse: expression nesting exceeds %d levels at offset %d", maxExprDepth, t.lo)
		}
		p.pos++
		e, err := p.parseNary(false)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		p.depth--
		return e, nil
	}
	return p.parseComparison()
}

// newPred carves the next leaf from the per-parse slab, making the slab on
// the first call, from the arena when the parse has one: lex counted a
// comparison token for every leaf.
func (p *parser) newPred(pr Pred) *Pred {
	if p.preds == nil {
		if a := p.arena; a != nil {
			p.preds = a.preds.carve(p.ncmp)
		} else {
			p.preds = make([]Pred, p.ncmp)
		}
	}
	leaf := &p.preds[0]
	p.preds = p.preds[1:]
	*leaf = pr
	return leaf
}

// newQuery and newNode, like newPred, make what a parse returns: carved from
// the parser's arena when it has one, allocated on the heap when it does not.

// newQuery returns an empty query with room for tables FROM names.
func (p *parser) newQuery(tables int) *Query {
	if a := p.arena; a != nil {
		q := &a.queries.carve(1)[0]
		q.Tables = a.tables.carve(tables)[:0]
		return q
	}
	return &Query{Tables: make([]string, 0, tables)}
}

// newNode returns an AND (isAnd) or OR node over a copy of kids of exactly
// their number.
func (p *parser) newNode(kids []Expr, isAnd bool) Expr {
	a := p.arena
	var own []Expr
	if a != nil {
		own = a.kids.carve(len(kids))
	} else {
		own = make([]Expr, len(kids))
	}
	copy(own, kids)
	switch {
	case a == nil && isAnd:
		return &And{Kids: own}
	case a == nil:
		return &Or{Kids: own}
	case isAnd:
		n := &a.ands.carve(1)[0]
		n.Kids = own
		return n
	}
	n := &a.ors.carve(1)[0]
	n.Kids = own
	return n
}

// operand is a comparison operand: either a column reference or a literal.
type operand struct {
	col   string // non-empty for column references
	val   int64
	str   *string
	isLit bool
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if p.peekKeyword("like") {
		return p.parseLike(left)
	}
	opTok, err := p.expect(tokOp, "comparison operator")
	if err != nil {
		return nil, err
	}
	op := CmpOp(opTok.val)
	right, err := p.parseOperand()
	if err != nil {
		return nil, err
	}

	switch {
	case !left.isLit && right.isLit:
		return p.newPred(Pred{Attr: left.col, Op: op, Val: right.val, Str: right.str}), nil
	case left.isLit && !right.isLit:
		// Normalize "5 < A" to "A > 5": swap operands and mirror the
		// operator. = and <> are symmetric.
		return p.newPred(Pred{Attr: right.col, Op: mirror(op), Val: left.val, Str: left.str}), nil
	case !left.isLit && !right.isLit:
		if op != OpEq {
			return nil, fmt.Errorf("sqlparse: column-to-column comparison %s %s %s must use =", left.col, op, right.col)
		}
		// A join leaf: Op is the opJoin marker and Val indexes the right
		// column in p.joinRight; splitJoins lifts it out of the tree.
		p.joinRight = append(p.joinRight, right.col)
		return p.newPred(Pred{Attr: left.col, Op: opJoin, Val: int64(len(p.joinRight) - 1)}), nil
	default:
		return nil, fmt.Errorf("sqlparse: literal-to-literal comparison near offset %d", opTok.lo)
	}
}

// parseLike parses "column LIKE 'prefix%'" — the string-prefix pattern of
// Section 6. Only a single trailing % wildcard is supported; anything wider
// (leading %, _, infix %) is outside the featurizable class and rejected.
func (p *parser) parseLike(left operand) (Expr, error) {
	likeTok := p.next() // the LIKE keyword
	if left.isLit {
		return nil, fmt.Errorf("sqlparse: LIKE requires a column on the left at offset %d", likeTok.lo)
	}
	t, err := p.expect(tokString, "string pattern after LIKE")
	if err != nil {
		return nil, err
	}
	pat := stringText(p.text(t))
	if len(pat) == 0 || pat[len(pat)-1] != '%' {
		return nil, fmt.Errorf("sqlparse: LIKE pattern %q must end with %% (prefix patterns only)", pat)
	}
	prefix := pat[:len(pat)-1]
	if strings.ContainsAny(prefix, "%_") {
		return nil, fmt.Errorf("sqlparse: LIKE pattern %q: only a single trailing %% wildcard is supported", pat)
	}
	return p.newPred(Pred{Attr: left.col, Op: OpGe, Str: &prefix, Like: true}), nil
}

func (p *parser) parseOperand() (operand, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.pos++
		return operand{val: t.val, isLit: true}, nil
	case tokNumber:
		p.pos++
		text := p.text(t)
		if strings.IndexByte(text, '.') >= 0 {
			return operand{}, fmt.Errorf("sqlparse: decimal literal %q at offset %d: decimal attributes must be fixed-point scaled at load time", text, t.lo)
		}
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return operand{}, fmt.Errorf("sqlparse: bad integer %q at offset %d: %w", text, t.lo, err)
		}
		return operand{val: v, isLit: true}, nil
	case tokString:
		p.pos++
		s := stringText(p.text(t))
		return operand{str: &s, isLit: true}, nil
	case tokIdent:
		name, err := p.parseColumnName()
		if err != nil {
			return operand{}, err
		}
		return operand{col: name}, nil
	}
	return operand{}, fmt.Errorf("sqlparse: expected operand, got %s at offset %d", p.describe(t), t.lo)
}

// parseColumnName parses "col" or "table.col". The qualified name is a
// substring of the source unless the source puts space around the dot.
func (p *parser) parseColumnName() (string, error) {
	t, err := p.expect(tokIdent, "column name")
	if err != nil {
		return "", err
	}
	dot := p.peek()
	if dot.kind != tokDot {
		return p.text(t), nil
	}
	p.pos++
	t2, err := p.expect(tokIdent, "column name after '.'")
	if err != nil {
		return "", err
	}
	if t.end == dot.lo && dot.end == t2.lo {
		return p.src[t.lo:t2.end], nil
	}
	return p.text(t) + "." + p.text(t2), nil
}

// mirror flips an operator's direction for operand swapping.
func mirror(op CmpOp) CmpOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op // = and <> are symmetric
}

// opJoin marks a Pred that is a column = column comparison. Such leaves
// never escape this package: splitJoins removes or rejects every one.
const opJoin CmpOp = -1

// splitJoins removes join leaves from the top-level conjunction of expr and
// returns the remaining selection expression plus the join predicates. A
// join leaf anywhere else (under OR, or nested) is an error: the paper's
// query class joins along key/foreign-key edges unconditionally. An
// expression without join leaves is returned as it is.
func (p *parser) splitJoins(expr Expr) (Expr, []JoinPred, error) {
	if len(p.joinRight) == 0 {
		return expr, nil, nil
	}
	joins := make([]JoinPred, 0, len(p.joinRight))
	conj := []Expr{expr}
	and, isAnd := expr.(*And)
	if isAnd {
		conj = and.Kids
	}
	// The conjunction is this parse's own, so the selections are kept by
	// filtering its children in place.
	keep := conj[:0]
	for _, kid := range conj {
		if leaf, ok := kid.(*Pred); ok && leaf.Op == opJoin {
			joins = append(joins, p.joinPred(leaf))
			continue
		}
		if err := p.rejectJoinLeaves(kid); err != nil {
			return nil, nil, err
		}
		keep = append(keep, kid)
	}
	clear(conj[len(keep):])
	switch len(keep) {
	case 0:
		return nil, joins, nil
	case 1:
		return keep[0], joins, nil
	}
	and.Kids = keep // two or more conjuncts: expr was the *And
	return and, joins, nil
}

func (p *parser) joinPred(leaf *Pred) JoinPred {
	lt, lc := splitQualified(leaf.Attr)
	rt, rc := splitQualified(p.joinRight[leaf.Val])
	return JoinPred{LeftTable: lt, LeftCol: lc, RightTable: rt, RightCol: rc}
}

// rejectJoinLeaves reports the first join leaf under e, if any.
func (p *parser) rejectJoinLeaves(e Expr) error {
	switch n := e.(type) {
	case *Pred:
		if n.Op == opJoin {
			return fmt.Errorf("sqlparse: join predicate %s = %s may only appear in the top-level conjunction",
				n.Attr, p.joinRight[n.Val])
		}
	case *And:
		for _, k := range n.Kids {
			if err := p.rejectJoinLeaves(k); err != nil {
				return err
			}
		}
	case *Or:
		for _, k := range n.Kids {
			if err := p.rejectJoinLeaves(k); err != nil {
				return err
			}
		}
	}
	return nil
}

// splitQualified splits "table.col" into its parts; an unqualified name
// yields an empty table.
func splitQualified(name string) (tbl, col string) {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}

// validateJoins checks that every join predicate references tables in the
// FROM list (when qualified) and that multi-table queries qualify their
// selection attributes.
func validateJoins(q *Query) error {
	for _, j := range q.Joins {
		for _, t := range [2]string{j.LeftTable, j.RightTable} {
			if t == "" {
				return fmt.Errorf("sqlparse: join predicate %s must use qualified column names", j)
			}
			if !slices.Contains(q.Tables, t) {
				return fmt.Errorf("sqlparse: join predicate %s references table %q not in FROM", j, t)
			}
		}
	}
	if len(q.Tables) > 1 {
		return validateQualified(q.Where, q.Tables)
	}
	return nil
}

// validateQualified reports the first predicate of e, left to right, whose
// attribute is not qualified by one of tables.
func validateQualified(e Expr, tables []string) error {
	switch n := e.(type) {
	case *Pred:
		tbl, _ := splitQualified(n.Attr)
		if tbl == "" {
			return fmt.Errorf("sqlparse: attribute %q must be table-qualified in a multi-table query", n.Attr)
		}
		if !slices.Contains(tables, tbl) {
			return fmt.Errorf("sqlparse: attribute %q references table not in FROM", n.Attr)
		}
	case *And:
		for _, k := range n.Kids {
			if err := validateQualified(k, tables); err != nil {
				return err
			}
		}
	case *Or:
		for _, k := range n.Kids {
			if err := validateQualified(k, tables); err != nil {
				return err
			}
		}
	}
	return nil
}
