// Package jsonenc appends JSON strings and numbers to a byte slice exactly as
// encoding/json writes them (json.Marshal and json.Encoder, HTML escaping on),
// for the hand-written encoders of fixed schemas: the /v1/estimate response in
// internal/serve and the journal record in internal/journal. Each of those
// keeps encoding/json as its differential oracle in tests.
package jsonenc

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// Float appends a finite f as encoding/json formats a float64: the shortest
// text that reads back as f, in exponent form below 1e-6 and from 1e21 on,
// with a one-digit negative exponent written without its padding zero. A NaN
// or an infinity, which encoding/json refuses, is the caller's to reject.
func Float(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// safe marks the bytes encoding/json copies into a string as they are, alone:
// printable ASCII but the quote, the backslash and — its HTML escaping is on
// by default — <, > and &. A byte above ASCII starts a sequence that is
// decoded first.
var safe = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// String appends s as the quoted string encoding/json writes: control
// characters, the HTML-sensitive three and U+2028/U+2029 escaped, and invalid
// UTF-8 as an escaped U+FFFD. Error strings and query texts echo client
// input, so every one of these matters.
func String(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if safe[s[i]] {
			i++
			continue
		}
		if c := s[i]; c < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			start = i + size
		case r == 0x2028 || r == 0x2029: // LINE and PARAGRAPH SEPARATOR
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
