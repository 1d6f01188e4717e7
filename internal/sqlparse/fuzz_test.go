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
