package sqlparse

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestRandomQueryRoundTrip generates random queries of the paper's query
// class, renders them to SQL, re-parses, and checks structural equality —
// a generative cross-check of the lexer, parser, and printers.
func TestRandomQueryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	attrs := []string{"a", "b", "c", "d"}

	var build func(depth int) Expr
	build = func(depth int) Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			return &Pred{
				Attr: attrs[rng.Intn(len(attrs))],
				Op:   ops[rng.Intn(len(ops))],
				Val:  int64(rng.Intn(2001) - 1000),
			}
		}
		k := 2 + rng.Intn(3)
		kids := make([]Expr, k)
		for i := range kids {
			kids[i] = build(depth - 1)
		}
		if rng.Intn(2) == 0 {
			return NewAnd(kids...)
		}
		return NewOr(kids...)
	}

	for trial := 0; trial < 500; trial++ {
		q := &Query{Tables: []string{"t"}, Where: build(1 + rng.Intn(3))}
		src := q.String()
		q2, err := Parse(src)
		if err != nil {
			t.Fatalf("trial %d: re-parse of %q: %v", trial, src, err)
		}
		if got := q2.String(); got != src {
			t.Fatalf("trial %d: round trip changed query:\n  %s\n  %s", trial, src, got)
		}
		if err := diffOracle(src); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Semantics must also survive: evaluate both trees on random rows.
		for probe := 0; probe < 20; probe++ {
			row := map[string]int64{}
			for _, a := range attrs {
				row[a] = int64(rng.Intn(2001) - 1000)
			}
			if evalExpr(q.Where, row) != evalExpr(q2.Where, row) {
				t.Fatalf("trial %d: semantics changed for %s", trial, src)
			}
		}
	}
}

// TestRandomJoinQueryRoundTrip does the same for star-join queries.
func TestRandomJoinQueryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	sats := []string{"s1", "s2", "s3"}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(3)
		q := &Query{Tables: []string{"hub"}}
		for i := 0; i < n; i++ {
			q.Tables = append(q.Tables, sats[i])
			q.Joins = append(q.Joins, JoinPred{
				LeftTable: sats[i], LeftCol: "hub_id", RightTable: "hub", RightCol: "id",
			})
		}
		var conj []Expr
		for i := 0; i <= rng.Intn(3); i++ {
			tbl := q.Tables[rng.Intn(len(q.Tables))]
			conj = append(conj, &Pred{
				Attr: fmt.Sprintf("%s.x", tbl),
				Op:   OpGe,
				Val:  int64(rng.Intn(100)),
			})
		}
		q.Where = NewAnd(conj...)
		src := q.String()
		q2, err := Parse(src)
		if err != nil {
			t.Fatalf("trial %d: re-parse of %q: %v", trial, src, err)
		}
		if len(q2.Joins) != len(q.Joins) {
			t.Fatalf("trial %d: joins changed: %d vs %d", trial, len(q2.Joins), len(q.Joins))
		}
		if got := q2.String(); got != src {
			t.Fatalf("trial %d: round trip changed query:\n  %s\n  %s", trial, src, got)
		}
		if err := diffOracle(src); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
