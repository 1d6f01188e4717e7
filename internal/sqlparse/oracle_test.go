package sqlparse

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// This file keeps the lexer and parser Parse replaced, verbatim apart from
// the oracle prefix on their names, as the differential oracle of
// TestParseMatchesOracle and FuzzParse: one []token of text-carrying tokens
// per lex, a fresh []Expr plus a newNary copy per AND/OR node, join leaves
// marked by a sentinel string. It is not an alternative implementation; only
// tests call it.

// diffOracle parses src with Parse and with the oracle and describes the
// first difference: the ASTs must be deeply equal and the error strings
// byte-equal. The one intended divergence is the identifier alphabet. The
// oracle classified raw bytes as Latin-1 runes, so it accepted some bytes
// >= 0x80 (and invalid UTF-8) inside identifiers and blamed continuation
// bytes for the rest; Parse rejects every such byte outside a string
// literal, and for those inputs that rejection is all that is checked.
func diffOracle(src string) error {
	got, gotErr := Parse(src)
	if nonASCIIOutsideStrings(src) {
		if gotErr == nil {
			return fmt.Errorf("Parse(%q) accepted a non-ASCII byte outside a string literal", src)
		}
		return nil
	}
	want, wantErr := oracleParse(src)
	switch {
	case gotErr == nil && wantErr == nil:
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("Parse(%q):\n  got  %#v (%s)\n  want %#v (%s)", src, got, got, want, want)
		}
	case gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error():
		return fmt.Errorf("Parse(%q) error:\n  got  %v\n  want %v", src, gotErr, wantErr)
	}
	return nil
}

// diffArena parses every src into one arena and checks that each query
// deep-equals Parse's, and each error is Parse's: as soon as it is parsed,
// again once the whole corpus has been parsed into the same arena (no later
// parse may carve over an earlier query), and then once more after a Reset,
// from the memory the first round grew. With diffOracle, an arena parse is
// the oracle's parse.
func diffArena(srcs []string) error {
	var a Arena
	for round := 0; round < 2; round++ {
		held := make([]*Query, len(srcs))
		for i, src := range srcs {
			got, gotErr := a.Parse(src)
			want, wantErr := Parse(src)
			if gotErr != nil || wantErr != nil {
				if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
					return fmt.Errorf("arena parse of %q, round %d, error:\n  got  %v\n  want %v", src, round, gotErr, wantErr)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("arena parse of %q, round %d:\n  got  %#v (%s)\n  want %#v (%s)", src, round, got, got, want, want)
			}
			held[i] = got
		}
		for i, q := range held {
			if want, err := Parse(srcs[i]); q != nil && (err != nil || !reflect.DeepEqual(q, want)) {
				return fmt.Errorf("arena query of %q, round %d, changed while %d later queries were parsed into its arena:\n  got  %s\n  want %s",
					srcs[i], round, len(srcs)-1-i, q, want)
			}
		}
		a.Reset()
	}
	return nil
}

// nonASCIIOutsideStrings reports whether src has a byte >= 0x80 outside its
// quoted stretches. A ” escape toggles twice, so it needs no special case.
func nonASCIIOutsideStrings(src string) bool {
	inString := false
	for i := 0; i < len(src); i++ {
		switch c := src[i]; {
		case c == '\'':
			inString = !inString
		case c >= 0x80 && !inString:
			return true
		}
	}
	return false
}

// oracleVariants are spellings the generated corpora do not produce:
// spacing around the qualifying dot, literal-first comparisons, escaped
// quotes, LIKE, signs, and the error paths that depend on token text.
var oracleVariants = []string{
	"SELECT count(*) FROM t WHERE t . a = 1",
	"SELECT count(*) FROM t WHERE t.a = 1",
	"SELECT count(*) FROM t WHERE t .a = 1 AND t. b = 2",
	"SELECT count(*) FROM t WHERE 5 < a",
	"SELECT count(*) FROM t WHERE 5 >= t.a AND 'x' <> s",
	"SELECT count(*) FROM t WHERE s = 'it''s'",
	"SELECT count(*) FROM t WHERE s = ''''",
	"SELECT count(*) FROM t WHERE s = ''",
	"SELECT count(*) FROM t WHERE s = 'café 中 \xff'",
	"SELECT count(*) FROM t WHERE s LIKE 'it''s%'",
	"SELECT count(*) FROM t WHERE s LIKE 'ab%' OR s LIKE '%'",
	"SELECT count(*) FROM t WHERE like = 1 AND like LIKE 'l%'",
	"SELECT count(*) FROM and WHERE or = 1 OR and = 2",
	"SELECT count(*) FROM t WHERE a = +5 AND b = -0 AND c != 007",
	"SELECT count(*) FROM t WHERE a = 9223372036854775807 OR a = -9223372036854775808",
	"SELECT count(*) FROM t WHERE a = 9223372036854775808",
	"SELECT count(*) FROM t WHERE a = .5",
	"SELECT count(*) FROM t WHERE a = 5.",
	"SELECT count(*) FROM t WHERE a = 1.2.3",
	"SELECT count(*) FROM t WHERE a = -",
	"SELECT count(*) FROM t WHERE a == 1",
	"SELECT count(*) FROM t WHERE a <> 1 AND b != 2 AND c <= 3 AND d >= 4 AND e < 5 AND f > 6",
	"SELECT count(*) FROM t WHERE a=1and b=2",
	"SELECT count(*) FROM t WHERE (a = 1 AND (b = 2 AND (c = 3 OR (d = 4 OR e = 5))))",
	"SELECT count(*) FROM t WHERE ((a = 1))",
	"SELECT count(*) FROM t WHERE (a = 1 OR b = 2) OR (c = 3 AND d = 4) OR e = 5",
	"SELECT count(*) FROM t WHERE (a = 1",
	"SELECT count(*) FROM t WHERE a = 1)",
	"SELECT count(*) FROM t WHERE a LIKE b",
	"SELECT count(*) FROM t WHERE 'x' = 'y'",
	"SELECT count(*) FROM t WHERE a 'x'",
	"SELECT 'it''s' FROM t",
	"SELECT count(*) FROM 'it''s'",
	"SELECT count(*) FROM t, WHERE a = 1",
	"SELECT count(*) FROM t WHERE a = 1 GROUP BY t . b, c,",
	"SELECT count(*) FROM t WHERE a = 1 GROUP b",
	"SELECT count(*) FROM t GROUP BY t.b ; ;",
	"SELECT count(*) FROM a, b WHERE a.id = b.a_id",
	"SELECT count(*) FROM a, b WHERE (a.id = b.a_id)",
	"SELECT count(*) FROM a, b WHERE a . id = b . a_id AND (a.x > 0 AND b.y < 3)",
	"SELECT count(*) FROM a, b WHERE a.x > 0 AND a.id = b.a_id AND b.y < 3 AND b.a_id = a.id",
	"SELECT count(*) FROM a, b WHERE a.x > 0 AND (a.id = b.a_id OR b.y < 3)",
	"SELECT count(*) FROM a, b WHERE (a.x > 0 OR b.y = 1) AND (a.id = b.a_id AND b.y < 3)",
	"SELECT count(*) FROM a, b WHERE a.id = b.a_id OR a.id = b.other",
	"SELECT count(*) FROM a, b WHERE id = b.a_id",
	"SELECT count(*) FROM a, b WHERE a.id = a_id",
	"SELECT count(*) FROM a, b WHERE a.id = c.a_id",
	"SELECT count(*) FROM a, b WHERE c.id = b.a_id",
	"SELECT count(*) FROM a, b WHERE a.id = b.a_id AND (a.x = 1 OR y = 2)",
	"SELECT count(*) FROM a, b WHERE a.id = b.a_id AND (a.x = 1 OR c.y = 2)",
	"SELECT count(*) FROM a, b WHERE a.id < b.a_id",
	"SELECT count(*) FROM a WHERE a.id = a.other",
	"SELECT count(*) FROM t WHERE a = 1 # b",
	"SELECT count(*) FROM t WHERE a = 1 'open",
	"SELECT * FROM t WHERE a ! 1 'open",
}

// TestParseMatchesOracle: same AST for every accepted input, same error text
// for every rejected one, over the fuzz seeds, the tables of the parser
// tests and the spelling variants above. The generated corpora are compared
// where they are built: the random round-trip tests here, workload.Mixed
// and the JOB-light suite in the external test package.
func TestParseMatchesOracle(t *testing.T) {
	corpus := append([]string(nil), fuzzSeeds...)
	corpus = append(corpus, oracleVariants...)
	corpus = append(corpus, roundTripQueries...)
	corpus = append(corpus, likeErrorQueries...)
	for _, tc := range parseErrorCases {
		corpus = append(corpus, tc.src)
	}
	for _, src := range corpus {
		if err := diffOracle(src); err != nil {
			t.Error(err)
		}
	}
	if err := diffArena(corpus); err != nil {
		t.Error(err)
	}
}

// TestLexOpMatchesOracle: the lexer reads each operator's CmpOp off its
// bytes where it used to read the operator's extent and map its text
// afterwards (oracleLexOp and oracleCmpOpOf, the replaced bodies): the same
// extent, operator and error for every operator byte followed by every byte
// or by the end of the input.
func TestLexOpMatchesOracle(t *testing.T) {
	for _, c := range []byte("=<>!") {
		srcs := []string{string(c)}
		for d := 0; d < 256; d++ {
			srcs = append(srcs, string([]byte{c, byte(d)}))
		}
		for _, src := range srcs {
			end, op, err := lexOp(src, 0)
			wantEnd, wantErr := oracleLexOp(src, 0)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || err == nil && (end != wantEnd || op != oracleCmpOpOf(src[:end])) {
				t.Errorf("lexOp(%q) = %d, %v, %v; oracle %d, %v, %v", src, end, op, err, wantEnd, oracleCmpOpOf(src[:wantEnd]), wantErr)
			}
		}
	}
}

// oracleLexOp is lexOp as it was before it read the operator.
func oracleLexOp(src string, lo int) (int, error) {
	if lo+1 < len(src) {
		switch src[lo : lo+2] {
		case "<=", ">=", "<>", "!=":
			return lo + 2, nil
		}
	}
	if src[lo] == '!' {
		return 0, fmt.Errorf("sqlparse: bad operator starting with %q at offset %d", "!", lo)
	}
	return lo + 1, nil
}

// oracleCmpOpOf maps the text of an operator token to its operator, as the
// parser did before the lexer stored it.
func oracleCmpOpOf(text string) CmpOp {
	switch text {
	case "=":
		return OpEq
	case "<":
		return OpLt
	case "<=":
		return OpLe
	case ">":
		return OpGt
	case ">=":
		return OpGe
	}
	return OpNe
}

// oracleTokenKind classifies the oracle lexer's tokens.
type oracleTokenKind int

const (
	oracleTokEOF oracleTokenKind = iota
	oracleTokIdent
	oracleTokNumber
	oracleTokString
	oracleTokComma
	oracleTokDot
	oracleTokLParen
	oracleTokRParen
	oracleTokStar
	oracleTokSemi
	oracleTokOp // comparison operator
)

// oracleToken is a lexed token with its source position for error messages.
type oracleToken struct {
	kind oracleTokenKind
	text string
	pos  int
}

func (t oracleToken) String() string {
	if t.kind == oracleTokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// oracleLexer splits a SQL string into tokens.
type oracleLexer struct {
	src  string
	pos  int
	toks []oracleToken
}

// oracleLex tokenizes src. It returns an error with a byte offset for any
// character it cannot handle.
func oracleLex(src string) ([]oracleToken, error) {
	// Tokens of this grammar average about three source bytes, so half the
	// source length holds them all without the token slice ever regrowing.
	l := &oracleLexer{src: src, toks: make([]oracleToken, 0, len(src)/2+1)}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == ',':
			l.emit(oracleTokComma, ",")
		case c == '.' && !l.nextIsDigit():
			l.emit(oracleTokDot, ".")
		case c == '(':
			l.emit(oracleTokLParen, "(")
		case c == ')':
			l.emit(oracleTokRParen, ")")
		case c == '*':
			l.emit(oracleTokStar, "*")
		case c == ';':
			l.emit(oracleTokSemi, ";")
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '=' || c == '<' || c == '>' || c == '!':
			if err := l.lexOp(); err != nil {
				return nil, err
			}
		case c == '-' || c == '+' || oracleIsDigit(c) || c == '.':
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case oracleIsIdentStart(c):
			l.lexIdent()
		default:
			return nil, fmt.Errorf("sqlparse: unexpected character %q at offset %d", c, l.pos)
		}
	}
	l.toks = append(l.toks, oracleToken{kind: oracleTokEOF, pos: l.pos})
	return l.toks, nil
}

func (l *oracleLexer) emit(kind oracleTokenKind, text string) {
	l.toks = append(l.toks, oracleToken{kind: kind, text: text, pos: l.pos})
	l.pos += len(text)
}

func (l *oracleLexer) nextIsDigit() bool {
	return l.pos+1 < len(l.src) && oracleIsDigit(l.src[l.pos+1])
}

func (l *oracleLexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// '' is an escaped quote inside a string literal.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, oracleToken{kind: oracleTokString, text: b.String(), pos: start})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sqlparse: unterminated string literal at offset %d", start)
}

func (l *oracleLexer) lexOp() error {
	start := l.pos
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=":
		l.toks = append(l.toks, oracleToken{kind: oracleTokOp, text: two, pos: start})
		l.pos += 2
		return nil
	}
	one := l.src[l.pos : l.pos+1]
	switch one {
	case "=", "<", ">":
		l.toks = append(l.toks, oracleToken{kind: oracleTokOp, text: one, pos: start})
		l.pos++
		return nil
	}
	return fmt.Errorf("sqlparse: bad operator starting with %q at offset %d", one, start)
}

func (l *oracleLexer) lexNumber() error {
	start := l.pos
	if c := l.src[l.pos]; c == '-' || c == '+' {
		l.pos++
	}
	digits := 0
	for l.pos < len(l.src) && oracleIsDigit(l.src[l.pos]) {
		l.pos++
		digits++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		l.pos++
		for l.pos < len(l.src) && oracleIsDigit(l.src[l.pos]) {
			l.pos++
			digits++
		}
	}
	if digits == 0 {
		return fmt.Errorf("sqlparse: malformed number at offset %d", start)
	}
	l.toks = append(l.toks, oracleToken{kind: oracleTokNumber, text: l.src[start:l.pos], pos: start})
	return nil
}

func (l *oracleLexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && oracleIsIdentPart(l.src[l.pos]) {
		l.pos++
	}
	l.toks = append(l.toks, oracleToken{kind: oracleTokIdent, text: l.src[start:l.pos], pos: start})
}

func oracleIsDigit(c byte) bool { return c >= '0' && c <= '9' }

func oracleIsIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func oracleIsIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || oracleIsDigit(c)
}

// oracleParse is Parse as it was: lex everything, then parse.
func oracleParse(src string) (*Query, error) {
	toks, err := oracleLex(src)
	if err != nil {
		return nil, err
	}
	p := &oracleParser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// oracleParser is a recursive-descent parser over the token stream.
type oracleParser struct {
	toks  []oracleToken
	pos   int
	depth int // current parenthesis nesting inside the WHERE expression
}

func (p *oracleParser) peek() oracleToken { return p.toks[p.pos] }
func (p *oracleParser) next() oracleToken { t := p.toks[p.pos]; p.pos++; return t }
func (p *oracleParser) atEOF() bool       { return p.peek().kind == oracleTokEOF }

// expectKeyword consumes an identifier token equal (case-insensitively) to kw.
func (p *oracleParser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != oracleTokIdent || !strings.EqualFold(t.text, kw) {
		return fmt.Errorf("sqlparse: expected %s, got %s at offset %d", strings.ToUpper(kw), t, t.pos)
	}
	return nil
}

func (p *oracleParser) expect(kind oracleTokenKind, what string) (oracleToken, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("sqlparse: expected %s, got %s at offset %d", what, t, t.pos)
	}
	return t, nil
}

func (p *oracleParser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.kind == oracleTokIdent && strings.EqualFold(t.text, kw)
}

func (p *oracleParser) parseQuery() (*Query, error) {
	for _, kw := range []string{"select", "count"} {
		if err := p.expectKeyword(kw); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(oracleTokLParen, "("); err != nil {
		return nil, err
	}
	if _, err := p.expect(oracleTokStar, "*"); err != nil {
		return nil, err
	}
	if _, err := p.expect(oracleTokRParen, ")"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}

	q := &Query{}
	for {
		t, err := p.expect(oracleTokIdent, "table name")
		if err != nil {
			return nil, err
		}
		q.Tables = append(q.Tables, t.text)
		if p.peek().kind != oracleTokComma {
			break
		}
		p.next()
	}

	if p.peekKeyword("where") {
		p.next()
		expr, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		where, joins, err := oracleSplitJoins(expr)
		if err != nil {
			return nil, err
		}
		q.Where = where
		q.Joins = joins
	}

	if p.peekKeyword("group") {
		p.next()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			name, err := p.parseColumnName()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, name)
			if p.peek().kind != oracleTokComma {
				break
			}
			p.next()
		}
	}

	if p.peek().kind == oracleTokSemi {
		p.next()
	}
	if !p.atEOF() {
		t := p.peek()
		return nil, fmt.Errorf("sqlparse: trailing input starting with %s at offset %d", t, t.pos)
	}
	if err := oracleValidateJoins(q); err != nil {
		return nil, err
	}
	return q, nil
}

func (p *oracleParser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	kids := []Expr{left}
	for p.peekKeyword("or") {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	return NewOr(kids...), nil
}

func (p *oracleParser) parseAnd() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	kids := []Expr{left}
	for p.peekKeyword("and") {
		p.next()
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	return NewAnd(kids...), nil
}

func (p *oracleParser) parsePrimary() (Expr, error) {
	if t := p.peek(); t.kind == oracleTokLParen {
		p.depth++
		if p.depth > maxExprDepth {
			return nil, fmt.Errorf("sqlparse: expression nesting exceeds %d levels at offset %d", maxExprDepth, t.pos)
		}
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(oracleTokRParen, ")"); err != nil {
			return nil, err
		}
		p.depth--
		return e, nil
	}
	return p.parseComparison()
}

// oracleOperand is a comparison operand: either a column reference or a literal.
type oracleOperand struct {
	col   string // non-empty for column references
	val   int64
	str   *string
	isLit bool
}

func (p *oracleParser) parseComparison() (Expr, error) {
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if p.peekKeyword("like") {
		return p.parseLike(left)
	}
	opTok, err := p.expect(oracleTokOp, "comparison operator")
	if err != nil {
		return nil, err
	}
	op, err := oracleParseOp(opTok.text)
	if err != nil {
		return nil, err
	}
	right, err := p.parseOperand()
	if err != nil {
		return nil, err
	}

	switch {
	case !left.isLit && right.isLit:
		return &Pred{Attr: left.col, Op: op, Val: right.val, Str: right.str}, nil
	case left.isLit && !right.isLit:
		// Normalize "5 < A" to "A > 5": swap operands and mirror the
		// operator. = and <> are symmetric.
		return &Pred{Attr: right.col, Op: oracleMirror(op), Val: left.val, Str: left.str}, nil
	case !left.isLit && !right.isLit:
		if op != OpEq {
			return nil, fmt.Errorf("sqlparse: column-to-column comparison %s %s %s must use =", left.col, op, right.col)
		}
		// A join leaf, encoded as a Pred with a sentinel Str carrying the
		// right column; oracleSplitJoins lifts it out of the expression tree.
		rc := oracleJoinSentinel + right.col
		return &Pred{Attr: left.col, Op: OpEq, Str: &rc}, nil
	default:
		return nil, fmt.Errorf("sqlparse: literal-to-literal comparison near offset %d", opTok.pos)
	}
}

// parseLike parses "column LIKE 'prefix%'" — the string-prefix pattern of
// Section 6. Only a single trailing % wildcard is supported; anything wider
// (leading %, _, infix %) is outside the featurizable class and rejected.
func (p *oracleParser) parseLike(left oracleOperand) (Expr, error) {
	likeTok := p.next() // the LIKE keyword
	if left.isLit {
		return nil, fmt.Errorf("sqlparse: LIKE requires a column on the left at offset %d", likeTok.pos)
	}
	t, err := p.expect(oracleTokString, "string pattern after LIKE")
	if err != nil {
		return nil, err
	}
	pat := t.text
	if len(pat) == 0 || pat[len(pat)-1] != '%' {
		return nil, fmt.Errorf("sqlparse: LIKE pattern %q must end with %% (prefix patterns only)", pat)
	}
	prefix := pat[:len(pat)-1]
	for i := 0; i < len(prefix); i++ {
		if prefix[i] == '%' || prefix[i] == '_' {
			return nil, fmt.Errorf("sqlparse: LIKE pattern %q: only a single trailing %% wildcard is supported", pat)
		}
	}
	return &Pred{Attr: left.col, Op: OpGe, Str: &prefix, Like: true}, nil
}

func (p *oracleParser) parseOperand() (oracleOperand, error) {
	t := p.peek()
	switch t.kind {
	case oracleTokNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			return oracleOperand{}, fmt.Errorf("sqlparse: decimal literal %q at offset %d: decimal attributes must be fixed-point scaled at load time", t.text, t.pos)
		}
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return oracleOperand{}, fmt.Errorf("sqlparse: bad integer %q at offset %d: %w", t.text, t.pos, err)
		}
		return oracleOperand{val: v, isLit: true}, nil
	case oracleTokString:
		p.next()
		s := t.text
		return oracleOperand{str: &s, isLit: true}, nil
	case oracleTokIdent:
		name, err := p.parseColumnName()
		if err != nil {
			return oracleOperand{}, err
		}
		return oracleOperand{col: name}, nil
	}
	return oracleOperand{}, fmt.Errorf("sqlparse: expected operand, got %s at offset %d", t, t.pos)
}

// parseColumnName parses "col" or "table.col".
func (p *oracleParser) parseColumnName() (string, error) {
	t, err := p.expect(oracleTokIdent, "column name")
	if err != nil {
		return "", err
	}
	name := t.text
	if p.peek().kind == oracleTokDot {
		p.next()
		t2, err := p.expect(oracleTokIdent, "column name after '.'")
		if err != nil {
			return "", err
		}
		name = name + "." + t2.text
	}
	return name, nil
}

func oracleParseOp(text string) (CmpOp, error) {
	switch text {
	case "=":
		return OpEq, nil
	case "<>", "!=":
		return OpNe, nil
	case "<":
		return OpLt, nil
	case "<=":
		return OpLe, nil
	case ">":
		return OpGt, nil
	case ">=":
		return OpGe, nil
	}
	return 0, fmt.Errorf("sqlparse: unknown operator %q", text)
}

// oracleMirror flips an operator's direction for operand swapping.
func oracleMirror(op CmpOp) CmpOp {
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

// oracleJoinSentinel marks a Pred whose Str field carries the right-hand column of
// a column = column comparison. Such leaves never escape this package.
const oracleJoinSentinel = "\x00join:"

// oracleSplitJoins removes join leaves from the top-level conjunction of expr and
// returns the remaining selection expression plus the join predicates. A
// join leaf anywhere else (under OR, or nested) is an error: the paper's
// query class joins along key/foreign-key edges unconditionally.
func oracleSplitJoins(expr Expr) (Expr, []JoinPred, error) {
	var joins []JoinPred
	var keep []Expr
	for _, kid := range Conjuncts(expr) {
		if jp, ok := oracleAsJoinLeaf(kid); ok {
			joins = append(joins, jp)
			continue
		}
		if err := oracleRejectJoinLeaves(kid); err != nil {
			return nil, nil, err
		}
		keep = append(keep, kid)
	}
	return NewAnd(keep...), joins, nil
}

func oracleAsJoinLeaf(e Expr) (JoinPred, bool) {
	p, ok := e.(*Pred)
	if !ok || p.Str == nil || !strings.HasPrefix(*p.Str, oracleJoinSentinel) {
		return JoinPred{}, false
	}
	right := strings.TrimPrefix(*p.Str, oracleJoinSentinel)
	lt, lc := oracleSplitQualified(p.Attr)
	rt, rc := oracleSplitQualified(right)
	return JoinPred{LeftTable: lt, LeftCol: lc, RightTable: rt, RightCol: rc}, true
}

func oracleRejectJoinLeaves(e Expr) error {
	switch n := e.(type) {
	case *Pred:
		if n.Str != nil && strings.HasPrefix(*n.Str, oracleJoinSentinel) {
			return fmt.Errorf("sqlparse: join predicate %s = %s may only appear in the top-level conjunction",
				n.Attr, strings.TrimPrefix(*n.Str, oracleJoinSentinel))
		}
	case *And:
		for _, k := range n.Kids {
			if err := oracleRejectJoinLeaves(k); err != nil {
				return err
			}
		}
	case *Or:
		for _, k := range n.Kids {
			if err := oracleRejectJoinLeaves(k); err != nil {
				return err
			}
		}
	}
	return nil
}

// oracleSplitQualified splits "table.col" into its parts; an unqualified name
// yields an empty table.
func oracleSplitQualified(name string) (tbl, col string) {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}

// oracleValidateJoins checks that every join predicate references tables in the
// FROM list (when qualified) and that multi-table queries qualify their
// selection attributes.
func oracleValidateJoins(q *Query) error {
	inFrom := make(map[string]bool, len(q.Tables))
	for _, t := range q.Tables {
		inFrom[t] = true
	}
	for _, j := range q.Joins {
		for _, t := range []string{j.LeftTable, j.RightTable} {
			if t == "" {
				return fmt.Errorf("sqlparse: join predicate %s must use qualified column names", j)
			}
			if !inFrom[t] {
				return fmt.Errorf("sqlparse: join predicate %s references table %q not in FROM", j, t)
			}
		}
	}
	if len(q.Tables) > 1 && q.Where != nil {
		for _, p := range CollectPreds(q.Where) {
			tbl, _ := oracleSplitQualified(p.Attr)
			if tbl == "" {
				return fmt.Errorf("sqlparse: attribute %q must be table-qualified in a multi-table query", p.Attr)
			}
			if !inFrom[tbl] {
				return fmt.Errorf("sqlparse: attribute %q references table not in FROM", p.Attr)
			}
		}
	}
	return nil
}
