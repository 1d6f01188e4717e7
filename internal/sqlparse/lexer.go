package sqlparse

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt    // an integer literal of at most maxFastDigits digits; val holds its value
	tokNumber // any other numeric literal: a decimal, or a longer integer
	tokString
	tokComma
	tokDot
	tokLParen
	tokRParen
	tokStar
	tokSemi
	tokOp // comparison operator; val holds its CmpOp
)

// token is a span of the source: its text is src[lo:end]. It carries no
// pointer, so the token buffer is invisible to the garbage collector and
// can be reused from parse to parse.
type token struct {
	kind    tokenKind
	lo, end int
	val     int64 // a tokInt's value, a tokOp's CmpOp
}

// Character classes of the lexer, one table lookup per source byte.
const (
	classSpace uint8 = 1 << iota
	classDigit
	classIdentStart // [A-Za-z_]
	classIdentPart  // [A-Za-z0-9_]
)

// charClass classifies bytes. Identifiers are ASCII: a byte >= 0x80 has no
// class, so it is rejected wherever it appears outside a string literal.
var charClass = func() (t [256]uint8) {
	for _, c := range " \t\n\r" {
		t[c] = classSpace
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = classDigit | classIdentPart
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c] = classIdentStart | classIdentPart
		t[c-'a'+'A'] = classIdentStart | classIdentPart
	}
	t['_'] = classIdentStart | classIdentPart
	return t
}()

func isDigit(c byte) bool { return charClass[c]&classDigit != 0 }

// isKeyword reports whether the identifier text spells kw, which must be
// lower-case letters, in any case. Identifier bytes are [A-Za-z0-9_], and
// of those only a letter can equal a lower-case letter once bit 0x20 is set.
func isKeyword(text, kw string) bool {
	if len(text) != len(kw) {
		return false
	}
	for i := 0; i < len(kw); i++ {
		if text[i]|0x20 != kw[i] {
			return false
		}
	}
	return true
}

// lex tokenizes p.src into p.toks, ending with a tokEOF, and counts in
// p.ncmp the tokens that can each produce one predicate leaf (comparison
// operators and LIKE). It returns an error with a byte offset for any
// character it cannot handle. The whole source is lexed before parsing
// starts, so a lexical error anywhere wins over a syntax error.
func (p *parser) lex() error {
	src := p.src
	i := 0
	for i < len(src) {
		c := src[i]
		class := charClass[c]
		switch {
		case class&classSpace != 0:
			i++
		case class&classIdentStart != 0:
			lo := i
			for i++; i < len(src) && charClass[src[i]]&classIdentPart != 0; i++ {
			}
			p.emit(tokIdent, lo, i)
			if isKeyword(src[lo:i], "like") {
				p.ncmp++
			}
		case c == ',':
			i = p.emit(tokComma, i, i+1)
		case c == '(':
			i = p.emit(tokLParen, i, i+1)
		case c == ')':
			i = p.emit(tokRParen, i, i+1)
		case c == '*':
			i = p.emit(tokStar, i, i+1)
		case c == ';':
			i = p.emit(tokSemi, i, i+1)
		case c == '.' && !(i+1 < len(src) && isDigit(src[i+1])):
			i = p.emit(tokDot, i, i+1)
		case c == '\'':
			end, err := lexString(src, i)
			if err != nil {
				return err
			}
			i = p.emit(tokString, i, end)
		case c == '=' || c == '<' || c == '>' || c == '!':
			end, op, err := lexOp(src, i)
			if err != nil {
				return err
			}
			p.toks = append(p.toks, token{kind: tokOp, lo: i, end: end, val: int64(op)})
			i = end
			p.ncmp++
		case c == '-' || c == '+' || c == '.' || class&classDigit != 0:
			end, val, isInt, err := lexNumber(src, i)
			if err != nil {
				return err
			}
			if isInt {
				p.toks = append(p.toks, token{kind: tokInt, lo: i, end: end, val: val})
				i = end
			} else {
				i = p.emit(tokNumber, i, end)
			}
		default:
			return unexpectedCharacter(src, i)
		}
	}
	p.toks = append(p.toks, token{kind: tokEOF, lo: i, end: i})
	return nil
}

// emit appends one token and returns the offset lexing resumes at.
func (p *parser) emit(kind tokenKind, lo, end int) int {
	p.toks = append(p.toks, token{kind: kind, lo: lo, end: end})
	return end
}

// unexpectedCharacter names the character at offset i: the decoded rune, or
// the byte itself where the source is not valid UTF-8 there.
func unexpectedCharacter(src string, i int) error {
	r, size := utf8.DecodeRuneInString(src[i:])
	if r == utf8.RuneError && size == 1 {
		return fmt.Errorf("sqlparse: invalid UTF-8 byte 0x%02x at offset %d", src[i], i)
	}
	return fmt.Errorf("sqlparse: unexpected character %q at offset %d", r, i)
}

// lexString returns the offset just past the string literal opening at lo.
// The token keeps the quotes; stringText strips them.
func lexString(src string, lo int) (int, error) {
	for i := lo + 1; i < len(src); i++ {
		if src[i] != '\'' {
			continue
		}
		// '' is an escaped quote inside a string literal.
		if i+1 < len(src) && src[i+1] == '\'' {
			i++
			continue
		}
		return i + 1, nil
	}
	return 0, fmt.Errorf("sqlparse: unterminated string literal at offset %d", lo)
}

// stringText returns the value of a string-literal token spanning quoted:
// a substring of the source unless the literal contains an escaped quote.
func stringText(quoted string) string {
	return strings.ReplaceAll(quoted[1:len(quoted)-1], "''", "'")
}

// lexOp returns the offset just past the comparison operator starting at lo,
// and the operator: "!=" spells <> as "<>" does.
func lexOp(src string, lo int) (int, CmpOp, error) {
	c := src[lo]
	if lo+1 < len(src) {
		switch d := src[lo+1]; {
		case d == '=' && c == '<':
			return lo + 2, OpLe, nil
		case d == '=' && c == '>':
			return lo + 2, OpGe, nil
		case d == '=' && c == '!', d == '>' && c == '<':
			return lo + 2, OpNe, nil
		}
	}
	switch c {
	case '<':
		return lo + 1, OpLt, nil
	case '>':
		return lo + 1, OpGt, nil
	case '=':
		return lo + 1, OpEq, nil
	}
	return 0, 0, fmt.Errorf("sqlparse: bad operator starting with %q at offset %d", "!", lo)
}

// maxFastDigits is the most digits an integer literal may have for the
// lexer to read its value: 18 nines are below 2^63, so no sum overflows.
// A longer integer is left to strconv.ParseInt, range errors and all.
const maxFastDigits = 18

// lexNumber returns the offset just past the numeric literal starting at lo
// and, when it is an optionally signed integer of at most maxFastDigits
// digits, the value strconv.ParseInt would read off it, read in the same pass.
func lexNumber(src string, lo int) (end int, val int64, isInt bool, err error) {
	i := lo
	neg := false
	if c := src[i]; c == '-' || c == '+' {
		neg = c == '-'
		i++
	}
	digits := 0
	for ; i < len(src) && isDigit(src[i]); i++ {
		val = val*10 + int64(src[i]-'0')
		digits++
	}
	isInt = digits <= maxFastDigits
	if i < len(src) && src[i] == '.' {
		isInt = false
		for i++; i < len(src) && isDigit(src[i]); i++ {
			digits++
		}
	}
	if digits == 0 {
		return 0, 0, false, fmt.Errorf("sqlparse: malformed number at offset %d", lo)
	}
	if neg {
		val = -val
	}
	return i, val, isInt, nil
}
