package core

import (
	"math"
	"testing"

	"qfe/internal/sqlparse"
)

func mustParseQ(t *testing.T, sql string) *sqlparse.Query {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return q
}

// canonicalQuery renders q in the canonical textual form Fingerprint hashes:
// two queries render identically iff Fingerprint treats them as equivalent.
func canonicalQuery(q *sqlparse.Query) string {
	c := canonPool.Get().(*canon)
	c.query(q)
	s := string(c.buf)
	canonPool.Put(c)
	return s
}

// TestFingerprintEquivalences: every pair here is semantically identical
// and featurized identically by the paper's QFTs, so the fingerprints must
// collide — that collision is the estimate cache's whole value.
func TestFingerprintEquivalences(t *testing.T) {
	pairs := [][2]string{
		// Conjunct order is irrelevant.
		{"SELECT count(*) FROM t WHERE A >= 3 AND B = 1", "SELECT count(*) FROM t WHERE B = 1 AND A >= 3"},
		// Strict integer comparisons normalize to their closed forms.
		{"SELECT count(*) FROM t WHERE A > 5", "SELECT count(*) FROM t WHERE A >= 6"},
		{"SELECT count(*) FROM t WHERE A < 5", "SELECT count(*) FROM t WHERE A <= 4"},
		// != parses to <> already; both spellings collide.
		{"SELECT count(*) FROM t WHERE A != 2", "SELECT count(*) FROM t WHERE A <> 2"},
		// Duplicate conjuncts/disjuncts are absorbed (idempotence).
		{"SELECT count(*) FROM t WHERE A = 1 AND A = 1", "SELECT count(*) FROM t WHERE A = 1"},
		{"SELECT count(*) FROM t WHERE A = 1 OR A = 1", "SELECT count(*) FROM t WHERE A = 1"},
		// Disjunct order is irrelevant, also inside compound predicates.
		{"SELECT count(*) FROM t WHERE (A = 1 OR A = 2) AND B > 0", "SELECT count(*) FROM t WHERE B >= 1 AND (A = 2 OR A = 1)"},
		// FROM order and equi-join side order are irrelevant.
		{"SELECT count(*) FROM a, b WHERE a.id = b.a_id AND a.x > 0", "SELECT count(*) FROM b, a WHERE b.a_id = a.id AND a.x >= 1"},
		// GROUP BY attribute order is irrelevant (per-attribute indicator).
		{"SELECT count(*) FROM t WHERE A = 1 GROUP BY B, C", "SELECT count(*) FROM t WHERE A = 1 GROUP BY C, B"},
		// Nested same-operator nodes flatten.
		{"SELECT count(*) FROM t WHERE (A = 1 AND B = 2) AND C = 3", "SELECT count(*) FROM t WHERE C = 3 AND B = 2 AND A = 1"},
	}
	for _, p := range pairs {
		qa, qb := mustParseQ(t, p[0]), mustParseQ(t, p[1])
		if Fingerprint(qa) != Fingerprint(qb) {
			t.Errorf("fingerprints differ:\n  %s -> %s\n  %s -> %s",
				p[0], canonicalQuery(qa), p[1], canonicalQuery(qb))
		}
	}
}

// TestFingerprintInequivalences: none of these pairs may collide — a
// collision here would serve one query's estimate for a different query.
func TestFingerprintInequivalences(t *testing.T) {
	pairs := [][2]string{
		{"SELECT count(*) FROM t WHERE A = 1", "SELECT count(*) FROM t WHERE A = 2"},
		{"SELECT count(*) FROM t WHERE A = 1", "SELECT count(*) FROM t WHERE B = 1"},
		{"SELECT count(*) FROM t WHERE A = 1", "SELECT count(*) FROM t WHERE A <> 1"},
		{"SELECT count(*) FROM t WHERE A >= 1", "SELECT count(*) FROM t WHERE A > 1"},
		{"SELECT count(*) FROM t WHERE A = 1 AND B = 2", "SELECT count(*) FROM t WHERE A = 1 OR B = 2"},
		{"SELECT count(*) FROM t WHERE A = 1", "SELECT count(*) FROM t WHERE A = '1'"},
		{"SELECT count(*) FROM t WHERE A = 'x'", "SELECT count(*) FROM t WHERE A LIKE 'x%'"},
		{"SELECT count(*) FROM t", "SELECT count(*) FROM t, t"},
		{"SELECT count(*) FROM t WHERE A = 1", "SELECT count(*) FROM t WHERE A = 1 GROUP BY B"},
		{"SELECT count(*) FROM a, b WHERE a.id = b.a_id", "SELECT count(*) FROM a, b WHERE a.id = b.b_id"},
		// Hostile string literals must not forge canonical structure.
		{"SELECT count(*) FROM t WHERE A = 'x' AND B = 'y'", "SELECT count(*) FROM t WHERE A = 'x\x01B\x00=\x00\"y\"'"},
	}
	for _, p := range pairs {
		qa, qb := mustParseQ(t, p[0]), mustParseQ(t, p[1])
		if Fingerprint(qa) == Fingerprint(qb) {
			t.Errorf("inequivalent queries collide:\n  %s\n  %s\n  canon: %s",
				p[0], p[1], canonicalQuery(qa))
		}
	}
}

// TestFingerprintOverflowGuards: at the int64 domain edges the strict
// forms cannot normalize without wrapping; they must stay distinct from
// their closed neighbors and must not panic.
func TestFingerprintOverflowGuards(t *testing.T) {
	max := &sqlparse.Pred{Attr: "A", Op: sqlparse.OpGt, Val: math.MaxInt64}
	min := &sqlparse.Pred{Attr: "A", Op: sqlparse.OpLt, Val: math.MinInt64}
	qMax := &sqlparse.Query{Tables: []string{"t"}, Where: max}
	qMin := &sqlparse.Query{Tables: []string{"t"}, Where: min}
	if Fingerprint(qMax) == Fingerprint(qMin) {
		t.Fatal("distinct overflow-edge predicates collide")
	}
	ge := &sqlparse.Query{Tables: []string{"t"}, Where: &sqlparse.Pred{Attr: "A", Op: sqlparse.OpGe, Val: math.MaxInt64}}
	if Fingerprint(qMax) == Fingerprint(ge) {
		t.Fatal("A > MaxInt64 must not normalize onto A >= MaxInt64")
	}
}

// TestFingerprintMatchesFeaturization is the semantic contract the serving
// cache relies on: queries with equal fingerprints produce bit-identical
// feature vectors under Universal Conjunction Encoding and Limited
// Disjunction Encoding, hence identical model estimates.
func TestFingerprintMatchesFeaturization(t *testing.T) {
	meta := paperMeta()
	opts := Options{MaxEntriesPerAttr: 12}
	conj := NewConjunctive(meta, opts)
	complx := NewComplex(meta, opts)

	pairs := [][2]string{
		{"A >= 3 AND B = 1", "B = 1 AND A >= 3"},
		{"A > 5 AND B <= 10", "A >= 6 AND B < 11"},
		{"A = 1 AND A = 1 AND B > 0", "B >= 1 AND A = 1"},
		{"(A = 1 OR A = 2) AND C = 1", "C = 1 AND (A = 2 OR A = 1)"},
	}
	for _, p := range pairs {
		qa := mustParseQ(t, "SELECT count(*) FROM t WHERE "+p[0])
		stampByName(meta, qa.Where)
		qb := mustParseQ(t, "SELECT count(*) FROM t WHERE "+p[1])
		stampByName(meta, qb.Where)
		if Fingerprint(qa) != Fingerprint(qb) {
			t.Fatalf("pair %q / %q should share a fingerprint", p[0], p[1])
		}
		featurizers := map[string]func(sqlparse.Expr) ([]float64, error){
			"complex": complx.Featurize,
		}
		if sqlparse.IsConjunctive(qa.Where) {
			featurizers["conjunctive"] = conj.Featurize
		}
		for name, featurize := range featurizers {
			va, errA := featurize(qa.Where)
			vb, errB := featurize(qb.Where)
			if errA != nil || errB != nil {
				t.Fatalf("%s featurize %q/%q: %v / %v", name, p[0], p[1], errA, errB)
			}
			vecEq(t, va, vb, name+" vectors for fingerprint-equal queries")
		}
	}
}

func TestFingerprintCloneStable(t *testing.T) {
	q := mustParseQ(t, "SELECT count(*) FROM a, b WHERE a.id = b.a_id AND (a.x = 1 OR a.x = 2) AND b.s = 'it''s'")
	if Fingerprint(q) != Fingerprint(q.Clone()) {
		t.Fatal("fingerprint not stable under Clone")
	}
	// Fingerprinting must not mutate the query (it is shared with the
	// batcher and the feedback path).
	before := q.String()
	_ = Fingerprint(q)
	if q.String() != before {
		t.Fatalf("Fingerprint mutated the query: %q -> %q", before, q.String())
	}
}
