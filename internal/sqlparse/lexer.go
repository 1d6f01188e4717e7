package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokComma
	tokDot
	tokLParen
	tokRParen
	tokStar
	tokSemi
	tokOp // comparison operator
)

// token is a lexed token with its source position for error messages.
type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer splits a SQL string into tokens.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src. It returns an error with a byte offset for any
// character it cannot handle.
func lex(src string) ([]token, error) {
	// Tokens of this grammar average about three source bytes, so half the
	// source length holds them all without the token slice ever regrowing.
	l := &lexer{src: src, toks: make([]token, 0, len(src)/2+1)}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == ',':
			l.emit(tokComma, ",")
		case c == '.' && !l.nextIsDigit():
			l.emit(tokDot, ".")
		case c == '(':
			l.emit(tokLParen, "(")
		case c == ')':
			l.emit(tokRParen, ")")
		case c == '*':
			l.emit(tokStar, "*")
		case c == ';':
			l.emit(tokSemi, ";")
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '=' || c == '<' || c == '>' || c == '!':
			if err := l.lexOp(); err != nil {
				return nil, err
			}
		case c == '-' || c == '+' || isDigit(c) || c == '.':
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case isIdentStart(c):
			l.lexIdent()
		default:
			return nil, fmt.Errorf("sqlparse: unexpected character %q at offset %d", c, l.pos)
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
	return l.toks, nil
}

func (l *lexer) emit(kind tokenKind, text string) {
	l.toks = append(l.toks, token{kind: kind, text: text, pos: l.pos})
	l.pos += len(text)
}

func (l *lexer) nextIsDigit() bool {
	return l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])
}

func (l *lexer) lexString() error {
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
			l.toks = append(l.toks, token{kind: tokString, text: b.String(), pos: start})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sqlparse: unterminated string literal at offset %d", start)
}

func (l *lexer) lexOp() error {
	start := l.pos
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=":
		l.toks = append(l.toks, token{kind: tokOp, text: two, pos: start})
		l.pos += 2
		return nil
	}
	one := l.src[l.pos : l.pos+1]
	switch one {
	case "=", "<", ">":
		l.toks = append(l.toks, token{kind: tokOp, text: one, pos: start})
		l.pos++
		return nil
	}
	return fmt.Errorf("sqlparse: bad operator starting with %q at offset %d", one, start)
}

func (l *lexer) lexNumber() error {
	start := l.pos
	if c := l.src[l.pos]; c == '-' || c == '+' {
		l.pos++
	}
	digits := 0
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
		digits++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
			digits++
		}
	}
	if digits == 0 {
		return fmt.Errorf("sqlparse: malformed number at offset %d", start)
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
	return nil
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || isDigit(c)
}
