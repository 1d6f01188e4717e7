package serve

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"qfe/internal/core"
	"qfe/internal/sqlparse"
)

// estimateBodySeeds is the seed corpus of POST /v1/estimate bodies, shared by
// FuzzEstimateHandler and FuzzEstimateCodec. The SQL seeds mirror the
// sqlparse fuzz corpus (internal/sqlparse/fuzz_test.go) so everything the
// parser's fuzzer has learned to probe also hits the HTTP surface, wrapped in
// the request shapes the handler accepts.
func estimateBodySeeds() []string {
	sqlSeeds := []string{
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
		"SELECT count(*) FROM t WHERE " + strings.Repeat("(", 10000) + "a = 1" + strings.Repeat(")", 10000),
		// Fingerprint equivalence-class probes (replay keys journal records on it):
		// reordering, duplication, strict/closed comparison pairs, and
		// literals that try to forge the canonical form's separators.
		"SELECT count(*) FROM t WHERE b = 1 AND a > 5",
		"SELECT count(*) FROM t WHERE a >= 6 AND b = 1",
		"SELECT count(*) FROM t WHERE a = 1 OR a = 1 OR b = 2",
		"SELECT count(*) FROM t WHERE a = 1 AND a = 1",
		"SELECT count(*) FROM t WHERE a = 9223372036854775807",
		"SELECT count(*) FROM t WHERE a > 9223372036854775807",
		"SELECT count(*) FROM t WHERE s = 'x\x01B\x00=\x00\"y\"'",
	}
	var seeds []string
	for _, s := range sqlSeeds {
		// Each parser seed in both request shapes the handler accepts.
		single, _ := json.Marshal(map[string]any{"sql": s})
		batch, _ := json.Marshal(map[string]any{"queries": []map[string]any{{"sql": s}, {"sql": s, "actual": 3.5}}})
		// And raw, as a malformed JSON body.
		seeds = append(seeds, string(single), string(batch), s)
	}
	// JSON-shape seeds: unknown fields, wrong types, contradictory shapes,
	// hostile numbers.
	return append(seeds,
		`{}`,
		`{"sql":""}`,
		`{"sql":"SELECT count(*) FROM forest WHERE A1 = 1","queries":[{"sql":"x"}]}`,
		`{"sql":"SELECT count(*) FROM forest WHERE A1 = 1","bogus":true}`,
		`{"sql":123}`,
		`{"queries":"not an array"}`,
		`{"queries":[]}`,
		`{"queries":[{"sql":"SELECT count(*) FROM forest WHERE A1 = 1","actual":-1}]}`,
		`{"sql":"SELECT count(*) FROM forest WHERE A1 = 1","timeoutMs":-5}`,
		`{"sql":"SELECT count(*) FROM forest WHERE A1 = 1","timeoutMs":99999999999}`,
		`{"sql":"SELECT count(*) FROM forest WHERE A1 = 1","model":"ghost"}`,
		`{"sql":"SELECT count(*) FROM nosuchtable WHERE a = 1"}`,
		`{"sql":"SELECT count(*) FROM forest WHERE A1 = 'str'"}`,
		`[1,2,3]`,
		`null`,
		"{\"sql\":\"\x00\"}",
	)
}

// FuzzEstimateHandler feeds arbitrary bodies to POST /v1/estimate, each twice
// to a server with the estimate cache on and once to one with it off. The
// contract under fuzzing: malformed SQL or JSON is always a client error
// (4xx) — never a 5xx, never a panic — and the cache changes no answer: the
// second request, served from whatever the first inserted, gets the status
// and body (modulo "micros") of the uncached server, a 400 included. A query
// naming a table or column the database does not have is a 4xx as well, not
// an estimate (unknownNameBodies).
//
// Explore with `go test -fuzz=FuzzEstimateHandler ./internal/serve`.
func FuzzEstimateHandler(f *testing.F) {
	for _, s := range append(estimateBodySeeds(), unknownNameBodies...) {
		f.Add(s)
	}
	db, _ := testEnv(f)
	cached, uncached := diffServers(f, db)

	f.Fuzz(func(t *testing.T, body string) {
		sameAsUncached(t, cached, uncached, body) // must not panic
		if slices.Contains(unknownNameBodies, body) {
			if code, resp := serveBody(t, uncached, body); code < 400 || code >= 500 {
				t.Fatalf("body %q names what the database does not have: status %d (%s), want 4xx", body, code, resp)
			}
		}

		// The class-key contract of core.Fingerprint, on every SQL string the
		// fuzzer reaches the handler with: raw bodies and the sql fields of
		// JSON bodies.
		fingerprintInvariants(t, body)
		var shape struct {
			SQL     string `json:"sql"`
			Queries []struct {
				SQL string `json:"sql"`
			} `json:"queries"`
		}
		if json.Unmarshal([]byte(body), &shape) == nil {
			fingerprintInvariants(t, shape.SQL)
			for _, item := range shape.Queries {
				fingerprintInvariants(t, item.SQL)
			}
		}
	})
}

// fingerprintInvariants checks core.Fingerprint's contract as the key of a
// featurization class (replay files journal records under it) on any string the
// parser accepts: no panics, Clone-stable, non-mutating, and no collision
// between inequivalent predicate sets — a
// perturbed literal may only keep the fingerprint when the perturbed query is
// semantically identical (which grid evaluation then has to confirm).
func fingerprintInvariants(t *testing.T, sql string) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return
	}
	fp := core.Fingerprint(q) // must not panic on anything parseable
	before := q.String()
	if got := core.Fingerprint(q.Clone()); got != fp {
		t.Fatalf("fingerprint not Clone-stable for %q", sql)
	}
	if q.String() != before {
		t.Fatalf("Fingerprint mutated the query: %q -> %q", before, q.String())
	}

	mut := q.Clone()
	p := firstNumericPred(mut.Where)
	if p == nil || p.Val == math.MaxInt64 {
		return
	}
	p.Val++
	if core.Fingerprint(mut) == fp && !exprsEquivalent(q.Where, mut.Where) {
		t.Fatalf("inequivalent queries share a fingerprint:\n  %s\n  %s", q, mut)
	}
}

// firstNumericPred returns the first numeric simple predicate in e, nil if
// none (string/LIKE predicates cannot be perturbed by ±1).
func firstNumericPred(e sqlparse.Expr) *sqlparse.Pred {
	switch n := e.(type) {
	case *sqlparse.Pred:
		if n.Str == nil && !n.Like {
			return n
		}
	case *sqlparse.And:
		for _, k := range n.Kids {
			if p := firstNumericPred(k); p != nil {
				return p
			}
		}
	case *sqlparse.Or:
		for _, k := range n.Kids {
			if p := firstNumericPred(k); p != nil {
				return p
			}
		}
	}
	return nil
}

// exprsEquivalent tests a and b over a grid of assignments built from every
// literal's neighborhood. It can only miss inequivalence (sampling), never
// report it falsely, so a t.Fatal off its false return is always a real
// collision bug. Expressions with string predicates are vacuously true
// (the perturbation never touches them in a way the grid could decide).
func exprsEquivalent(a, b sqlparse.Expr) bool {
	attrs := map[string]map[int64]bool{}
	if !collectNumericDomain(a, attrs) || !collectNumericDomain(b, attrs) {
		return true
	}
	names := make([]string, 0, len(attrs))
	for name := range attrs {
		names = append(names, name)
	}
	if len(names) > 4 {
		return true // grid too large to be worth the fuzz cycle
	}
	values := make([][]int64, len(names))
	total := 1
	for i, name := range names {
		for v := range attrs[name] {
			values[i] = append(values[i], v)
		}
		total *= len(values[i])
		if total > 4096 {
			return true
		}
	}
	assign := map[string]int64{}
	var walk func(i int) bool
	walk = func(i int) bool {
		if i == len(names) {
			return evalExpr(a, assign) == evalExpr(b, assign)
		}
		for _, v := range values[i] {
			assign[names[i]] = v
			if !walk(i + 1) {
				return false
			}
		}
		return true
	}
	return walk(0)
}

// collectNumericDomain gathers each attribute's literal neighborhood
// {v-1, v, v+1}; false means e contains a string predicate and the grid
// check must be skipped.
func collectNumericDomain(e sqlparse.Expr, attrs map[string]map[int64]bool) bool {
	switch n := e.(type) {
	case *sqlparse.Pred:
		if n.Str != nil || n.Like {
			return false
		}
		if attrs[n.Attr] == nil {
			attrs[n.Attr] = map[int64]bool{}
		}
		for _, v := range []int64{n.Val - 1, n.Val, n.Val + 1} {
			attrs[n.Attr][v] = true
		}
	case *sqlparse.And:
		for _, k := range n.Kids {
			if !collectNumericDomain(k, attrs) {
				return false
			}
		}
	case *sqlparse.Or:
		for _, k := range n.Kids {
			if !collectNumericDomain(k, attrs) {
				return false
			}
		}
	}
	return true
}

// evalExpr evaluates a predicate tree under a total numeric assignment.
func evalExpr(e sqlparse.Expr, assign map[string]int64) bool {
	switch n := e.(type) {
	case *sqlparse.Pred:
		v := assign[n.Attr]
		switch n.Op {
		case sqlparse.OpEq:
			return v == n.Val
		case sqlparse.OpNe:
			return v != n.Val
		case sqlparse.OpLt:
			return v < n.Val
		case sqlparse.OpLe:
			return v <= n.Val
		case sqlparse.OpGt:
			return v > n.Val
		case sqlparse.OpGe:
			return v >= n.Val
		}
	case *sqlparse.And:
		for _, k := range n.Kids {
			if !evalExpr(k, assign) {
				return false
			}
		}
		return true
	case *sqlparse.Or:
		for _, k := range n.Kids {
			if evalExpr(k, assign) {
				return true
			}
		}
		return false
	}
	return true
}
