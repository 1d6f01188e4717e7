package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestPredIs48Bytes: the column stamp exec.Bind writes (Pred.Col) sits in the
// padding after Like, so a predicate stays 48 bytes on a 64-bit machine — the
// size every parse, arena chunk and cached query pays per leaf.
func TestPredIs48Bytes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned for 64-bit machines")
	}
	if got := unsafe.Sizeof(Pred{}); got != 48 {
		t.Errorf("unsafe.Sizeof(Pred{}) = %d, want 48", got)
	}
}

// TestIntegerLiteralsAreParseInt: the value the lexer reads off an integer
// literal is strconv.ParseInt's, and a literal ParseInt refuses fails with
// ParseInt's error, on both sides of the lexer's 18-digit line.
func TestIntegerLiteralsAreParseInt(t *testing.T) {
	const prefix = "SELECT count(*) FROM t WHERE a >= "
	for _, lit := range intLiterals {
		q, err := Parse(prefix + lit)
		if strings.ContainsRune(lit, '.') {
			want := fmt.Sprintf("sqlparse: decimal literal %q at offset %d: decimal attributes must be fixed-point scaled at load time", lit, len(prefix))
			if err == nil || err.Error() != want {
				t.Errorf("%s: err = %v, want %q", lit, err, want)
			}
			continue
		}
		v, perr := strconv.ParseInt(lit, 10, 64)
		if perr != nil {
			want := fmt.Sprintf("sqlparse: bad integer %q at offset %d: %v", lit, len(prefix), perr)
			if err == nil || err.Error() != want {
				t.Errorf("%s: err = %v, want %q", lit, err, want)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", lit, err)
			continue
		}
		if got := q.Where.(*Pred).Val; got != v {
			t.Errorf("%s: value %d, want %d", lit, got, v)
		}
	}
}

func TestParseSingleTable(t *testing.T) {
	q, err := Parse("SELECT count(*) FROM forest WHERE A7 >= 160 AND A7 <= 225 AND A8 <> 220;")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 1 || q.Tables[0] != "forest" {
		t.Errorf("Tables = %v", q.Tables)
	}
	preds := CollectPreds(q.Where)
	if len(preds) != 3 {
		t.Fatalf("got %d predicates, want 3", len(preds))
	}
	if preds[0].Attr != "A7" || preds[0].Op != OpGe || preds[0].Val != 160 {
		t.Errorf("pred 0 = %v", preds[0])
	}
	if preds[2].Op != OpNe || preds[2].Val != 220 {
		t.Errorf("pred 2 = %v", preds[2])
	}
}

func TestParseNoWhere(t *testing.T) {
	q, err := Parse("SELECT count(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if q.Where != nil || len(q.Joins) != 0 {
		t.Errorf("expected empty where/joins, got %v / %v", q.Where, q.Joins)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse("select COUNT ( * ) from T where a = 1 AND b > 2 or c < 3"); err != nil {
		t.Fatal(err)
	}
}

func TestParsePrecedenceAndOverOr(t *testing.T) {
	q := MustParse("SELECT count(*) FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or, ok := q.Where.(*Or)
	if !ok {
		t.Fatalf("top level = %T, want *Or", q.Where)
	}
	if len(or.Kids) != 2 {
		t.Fatalf("Or has %d kids", len(or.Kids))
	}
	if _, ok := or.Kids[1].(*And); !ok {
		t.Errorf("right OR child = %T, want *And (AND binds tighter)", or.Kids[1])
	}
}

func TestParseParentheses(t *testing.T) {
	q := MustParse("SELECT count(*) FROM t WHERE (a = 1 OR a = 2) AND b = 3")
	and, ok := q.Where.(*And)
	if !ok {
		t.Fatalf("top level = %T, want *And", q.Where)
	}
	if _, ok := and.Kids[0].(*Or); !ok {
		t.Errorf("first AND child = %T, want *Or", and.Kids[0])
	}
}

func TestParseMixedQueryFromPaper(t *testing.T) {
	// The TPC-H style example query below Definition 3.3, with dates as
	// encoded integers.
	src := `SELECT count(*) FROM Orders WHERE
		(o_orderdate >= 19940101 AND o_orderdate <= 19941231
		 AND o_orderdate <> 19940704
		 OR
		 o_orderdate >= 19960101 AND o_orderdate <= 19961231
		 AND o_orderdate <> 19960704) AND
		(o_orderstatus = 1 OR o_orderstatus = 2) AND
		(o_totalprice > 1000 AND o_totalprice < 2000);`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	comps, err := CompoundPredicates(q.Where)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 3 {
		t.Fatalf("got %d compound predicates, want 3", len(comps))
	}
	wantAttrs := []string{"o_orderdate", "o_orderstatus", "o_totalprice"}
	for i, c := range comps {
		if c.Attr != wantAttrs[i] {
			t.Errorf("compound %d attr = %q, want %q", i, c.Attr, wantAttrs[i])
		}
	}
	if NumPredicates(q) != 10 {
		t.Errorf("NumPredicates = %d, want 10", NumPredicates(q))
	}
	if NumAttributes(q) != 3 {
		t.Errorf("NumAttributes = %d, want 3", NumAttributes(q))
	}
}

func TestParseJoins(t *testing.T) {
	q, err := Parse("SELECT count(*) FROM title, cast_info WHERE title.id = cast_info.movie_id AND title.production_year > 2000")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Joins) != 1 {
		t.Fatalf("got %d joins, want 1", len(q.Joins))
	}
	j := q.Joins[0]
	if j.LeftTable != "title" || j.LeftCol != "id" || j.RightTable != "cast_info" || j.RightCol != "movie_id" {
		t.Errorf("join = %+v", j)
	}
	preds := CollectPreds(q.Where)
	if len(preds) != 1 || preds[0].Attr != "title.production_year" {
		t.Errorf("selection preds = %v", preds)
	}
}

func TestParseOperandSwap(t *testing.T) {
	// "5 < a" must normalize to "a > 5".
	q := MustParse("SELECT count(*) FROM t WHERE 5 < a")
	p := CollectPreds(q.Where)[0]
	if p.Attr != "a" || p.Op != OpGt || p.Val != 5 {
		t.Errorf("swapped pred = %v", p)
	}
	q = MustParse("SELECT count(*) FROM t WHERE 7 = a")
	p = CollectPreds(q.Where)[0]
	if p.Attr != "a" || p.Op != OpEq || p.Val != 7 {
		t.Errorf("swapped eq pred = %v", p)
	}
}

func TestParseNegativeLiteral(t *testing.T) {
	q := MustParse("SELECT count(*) FROM t WHERE a > -2")
	p := CollectPreds(q.Where)[0]
	if p.Val != -2 {
		t.Errorf("Val = %d, want -2", p.Val)
	}
}

func TestParseStringLiteral(t *testing.T) {
	q := MustParse("SELECT count(*) FROM orders WHERE status = 'P' AND note <> 'it''s fine'")
	preds := CollectPreds(q.Where)
	if preds[0].Str == nil || *preds[0].Str != "P" {
		t.Errorf("pred 0 string = %v", preds[0].Str)
	}
	if preds[1].Str == nil || *preds[1].Str != "it's fine" {
		t.Errorf("escaped quote: got %v", preds[1].Str)
	}
}

func TestParseGroupBy(t *testing.T) {
	q := MustParse("SELECT count(*) FROM t WHERE a = 1 GROUP BY b, c")
	if len(q.GroupBy) != 2 || q.GroupBy[0] != "b" || q.GroupBy[1] != "c" {
		t.Errorf("GroupBy = %v", q.GroupBy)
	}
}

var parseErrorCases = []struct {
	name, src, wantSub string
}{
	{"not a count query", "SELECT * FROM t", "COUNT"},
	{"missing from", "SELECT count(*) WHERE a = 1", "FROM"},
	{"decimal literal", "SELECT count(*) FROM t WHERE a < 4.9", "decimal"},
	{"trailing garbage", "SELECT count(*) FROM t WHERE a = 1 banana", "trailing"},
	{"unterminated string", "SELECT count(*) FROM t WHERE a = 'x", "unterminated"},
	{"bad operator", "SELECT count(*) FROM t WHERE a ! 1", "operator"},
	{"literal vs literal", "SELECT count(*) FROM t WHERE 1 = 2", "literal"},
	{"join under or", "SELECT count(*) FROM a, b WHERE a.x = b.y OR a.z = 1", "top-level"},
	{"join non-eq", "SELECT count(*) FROM a, b WHERE a.x < b.y", "="},
	{"join unknown table", "SELECT count(*) FROM a, b WHERE a.x = c.y", "FROM"},
	{"unqualified in join query", "SELECT count(*) FROM a, b WHERE a.x = b.y AND z = 1", "qualified"},
	{"empty input", "", "SELECT"},
}

func TestParseErrors(t *testing.T) {
	for _, tc := range parseErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", tc.src)
			}
			if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tc.wantSub)) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

var roundTripQueries = []string{
	"SELECT count(*) FROM t WHERE a = 1 AND b > 2;",
	"SELECT count(*) FROM t WHERE (a = 1 OR a = 2) AND b <= 3;",
	"SELECT count(*) FROM t;",
	"SELECT count(*) FROM title, cast_info WHERE title.id = cast_info.movie_id AND title.kind_id = 7;",
	"SELECT count(*) FROM t WHERE a = 1 GROUP BY b;",
}

func TestStringRoundTrip(t *testing.T) {
	// Parsing a query's String() must reproduce the same structure.
	for _, src := range roundTripQueries {
		q1 := MustParse(src)
		q2, err := Parse(q1.String())
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", q1.String(), err)
		}
		if q1.String() != q2.String() {
			t.Errorf("round trip changed query:\n  first  %s\n  second %s", q1, q2)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	q := MustParse("SELECT count(*) FROM t WHERE a = 1 OR b = 2")
	c := q.Clone()
	CollectPreds(c.Where)[0].Val = 99
	if CollectPreds(q.Where)[0].Val != 1 {
		t.Error("Clone shares predicate storage with the original")
	}
}

func TestNewAndOrFlattening(t *testing.T) {
	p := func(attr string) Expr { return &Pred{Attr: attr, Op: OpEq, Val: 1} }
	e := NewAnd(NewAnd(p("a"), p("b")), p("c"))
	and, ok := e.(*And)
	if !ok || len(and.Kids) != 3 {
		t.Errorf("nested NewAnd did not flatten: %v", e)
	}
	if NewAnd() != nil {
		t.Error("NewAnd() should be nil")
	}
	if got := NewOr(p("a")); got != p("a") && got.String() != p("a").String() {
		t.Errorf("NewOr with one child = %v", got)
	}
	// Or nested in And must not flatten.
	e = NewAnd(NewOr(p("a"), p("b")), p("c"))
	and = e.(*And)
	if len(and.Kids) != 2 {
		t.Errorf("And over Or flattened wrongly: %v", e)
	}
}

func TestParseLike(t *testing.T) {
	q := MustParse("SELECT count(*) FROM t WHERE name LIKE 'ab%' AND x = 1")
	preds := CollectPreds(q.Where)
	if len(preds) != 2 {
		t.Fatalf("got %d preds", len(preds))
	}
	p := preds[0]
	if !p.Like || p.Str == nil || *p.Str != "ab" {
		t.Errorf("LIKE pred = %+v", p)
	}
	// String round trip.
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", q.String(), err)
	}
	if q2.String() != q.String() {
		t.Errorf("round trip changed: %s vs %s", q, q2)
	}
}

var likeErrorQueries = []string{
	"SELECT count(*) FROM t WHERE name LIKE 'ab'",   // no wildcard
	"SELECT count(*) FROM t WHERE name LIKE '%ab'",  // leading wildcard
	"SELECT count(*) FROM t WHERE name LIKE 'a%b%'", // infix wildcard
	"SELECT count(*) FROM t WHERE name LIKE 'a_b%'", // underscore
	"SELECT count(*) FROM t WHERE 'ab%' LIKE name",  // literal LHS
	"SELECT count(*) FROM t WHERE name LIKE 5",      // non-string pattern
}

func TestParseLikeErrors(t *testing.T) {
	for _, src := range likeErrorQueries {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseDepthLimit(t *testing.T) {
	wrap := func(depth int) string {
		return "SELECT count(*) FROM t WHERE " +
			strings.Repeat("(", depth) + "a = 1" + strings.Repeat(")", depth)
	}
	// At the limit: accepted.
	if _, err := Parse(wrap(maxExprDepth)); err != nil {
		t.Fatalf("nesting at the limit rejected: %v", err)
	}
	// One past the limit: a clean error, not a stack overflow.
	_, err := Parse(wrap(maxExprDepth + 1))
	if err == nil || !strings.Contains(err.Error(), "nesting exceeds") {
		t.Fatalf("err = %v, want nesting-depth error", err)
	}
	// Deep nesting that would previously exhaust the stack.
	if _, err := Parse(wrap(200_000)); err == nil {
		t.Fatal("200k-deep nesting accepted")
	}
	// Sibling groups do not accumulate depth: the counter tracks nesting,
	// not total parenthesis count.
	var b strings.Builder
	b.WriteString("SELECT count(*) FROM t WHERE (a = 1)")
	for i := 0; i < maxExprDepth+10; i++ {
		b.WriteString(" AND (a = 1)")
	}
	if _, err := Parse(b.String()); err != nil {
		t.Fatalf("sibling parenthesized groups rejected: %v", err)
	}
}

// TestIdentifiersAreASCII: the lexer used to classify raw bytes as Latin-1
// runes, so it blamed a continuation byte at a mid-rune offset for "é" and
// "中" and accepted the invalid UTF-8 "a\xff" as an identifier. Identifiers
// are ASCII; any other byte outside a string literal is rejected naming the
// decoded rune, or the invalid byte, at the offset of its first byte.
func TestIdentifiersAreASCII(t *testing.T) {
	const prefix = "SELECT count(*) FROM t WHERE " // 29 bytes
	for _, tc := range []struct{ src, want string }{
		{prefix + "é = 1", "sqlparse: unexpected character 'é' at offset 29"},
		{prefix + "中 = 1", "sqlparse: unexpected character '中' at offset 29"},
		{prefix + "a\xff = 1", "sqlparse: invalid UTF-8 byte 0xff at offset 30"},
		{prefix + "caf\u00e9 = 1", "sqlparse: unexpected character 'é' at offset 32"},
	} {
		_, err := Parse(tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q) error = %v, want %s", tc.src, err, tc.want)
		}
	}
	// Inside a string literal every byte passes through unchanged.
	q := MustParse(prefix + "s = 'é中\xff'")
	if got := *CollectPreds(q.Where)[0].Str; got != "é中\xff" {
		t.Errorf("string literal = %q", got)
	}
}
