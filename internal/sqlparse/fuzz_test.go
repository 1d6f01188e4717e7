package sqlparse

import (
	"strings"
	"testing"
)

var fuzzSeeds = []string{
	"SELECT count(*) FROM t",
	"SELECT count(*) FROM t WHERE a = 1;",
	"SELECT count(*) FROM t WHERE a >= -5 AND b <> 3 OR c < 100",
	"SELECT count(*) FROM forest WHERE (A1 = 1 OR A1 = 2) AND A2 <= 9",
	"SELECT count(*) FROM a, b WHERE a.id = b.a_id AND a.x > 0",
	"SELECT count(*) FROM t WHERE s = 'it''s' AND n LIKE 'ab%'",
	"SELECT count(*) FROM t WHERE a = 1 GROUP BY b, c",
	"select COUNT ( * ) from T where 5 < x",
	"SELECT count(*) FROM t WHERE",
	"SELECT count(*) FROM t WHERE a = ",
	"SELECT count(*) FROM t WHERE a = 'unterminated",
	"SELECT count(*) FROM t WHERE a ! b",
	"((((((((",
	"",
	"\x00\xff\xfe",
	// Regression: deep parenthesis nesting must hit the depth limit,
	// not the goroutine stack limit.
	"SELECT count(*) FROM t WHERE " + strings.Repeat("(", 10000) + "a = 1" + strings.Repeat(")", 10000),
}

// intLiterals are the numeric literals whose value the lexer reads itself
// and the ones it leaves to strconv.ParseInt, on either side of the line:
// signs, leading zeros, 18, 19 and 20 digits, the int64 extremes and one
// past each, and decimals.
var intLiterals = []string{
	"0", "-0", "+0", "7", "+7", "-7", "007", "-007", "+007",
	"123456789012345678", "-123456789012345678", "999999999999999999", "-999999999999999999",
	"000000000000000000", "000000000000000001", "0000000000000000001", "00000000000000000000000042",
	"1234567890123456789", "-1234567890123456789", "12345678901234567890", "-12345678901234567890",
	"9223372036854775807", "-9223372036854775808", "9223372036854775808", "-9223372036854775809",
	"99999999999999999999999", "1.5", "-0.0", ".5", "5.", "-.5", "123456789012345678.9",
}

func init() {
	for _, lit := range intLiterals {
		fuzzSeeds = append(fuzzSeeds, "SELECT count(*) FROM t WHERE a >= "+lit, "SELECT count(*) FROM t WHERE "+lit+" < a")
	}
}

// FuzzParse feeds arbitrary bytes to the parser: it must never panic, it must
// agree with the oracle parser (diffOracle: same AST, same error text, the
// ASCII identifier rule the one divergence), a parse into an arena must agree
// with Parse (diffArena, over the input and its rendering parsed into one
// arena), and whenever it accepts an input, the rendered SQL must re-parse to
// the same rendering (printer/parser agreement). Run the corpus as a normal test, or explore
// with `go test -fuzz=FuzzParse ./internal/sqlparse`.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if err := diffOracle(src); err != nil {
			t.Fatal(err)
		}
		q, err := Parse(src)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		rendered := q.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rendered form %q does not re-parse: %v", src, rendered, err)
		}
		if got := q2.String(); got != rendered {
			t.Fatalf("printer/parser disagreement:\n  first  %s\n  second %s", rendered, got)
		}
		if err := diffArena([]string{src, rendered}); err != nil {
			t.Fatal(err)
		}
	})
}
