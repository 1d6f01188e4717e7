package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"slices"
	"strconv"
	"sync"

	"qfe/internal/sqlparse"
)

// This file defines the canonical query fingerprint: a collision-resistant
// key for the *featurization equivalence class* of a query. The QFTs in
// this package deliberately map many syntactically different predicate
// combinations onto the same feature vector — predicate order is
// irrelevant (Algorithm 1 intersects per-attribute qualifying sets),
// duplicate predicates are absorbed, and over the integer domains of
// Section 3 the open and closed comparison forms ("a > 5" vs. "a >= 6")
// qualify identical value sets. Two queries with the same fingerprint have
// the same true cardinality, which is what its consumers file under it: the
// feedback journal's records and replay's traffic-derived canary. (The
// serving layer's estimate cache was keyed on it until a miss became cheaper
// than the key; it is keyed on the query text now — DESIGN §6, which also
// notes the one rewrite below that Limited Disjunction Encoding's summed
// selectivity entry does not absorb, a repeated disjunct.)
//
// Every rewrite applied below is an exact semantic equivalence, never a
// heuristic: sorting and deduplicating AND/OR children (commutativity,
// idempotence), normalizing strict integer comparisons to their closed
// forms, ordering the sides of an equi-join, and sorting table / GROUP BY
// lists. Distinct fingerprints may still denote equivalent queries (the
// relation is sound, not complete) — that costs a journaled label that is
// not found, never a wrong one.

// Fingerprint returns a fixed-length, collision-resistant key for q's
// featurization equivalence class: the hex-encoded SHA-256 of q's canonical
// form. Queries that differ only in predicate order, duplicated
// conjuncts/disjuncts, strict-vs-closed integer comparisons, equi-join side
// order, or FROM / GROUP BY list order collide on purpose.
// The returned string is the call's only allocation.
func Fingerprint(q *sqlparse.Query) string {
	c := canonPool.Get().(*canon)
	c.query(q)
	sum := sha256.Sum256(c.buf)
	canonPool.Put(c)
	var dst [2 * sha256.Size]byte
	hex.Encode(dst[:], sum[:])
	return string(dst[:])
}

// canon is the pooled workspace the canonical form is rendered in. The
// parts of a list (the children of an AND/OR node, the joins, the names) are
// rendered one after another at the end of buf and remembered as spans; the
// spans, not strings, are then sorted, and the list is rewritten in place.
type canon struct {
	buf   []byte
	spans []span
}

var canonPool = sync.Pool{New: func() any { return new(canon) }}

func (c *canon) query(q *sqlparse.Query) {
	c.buf, c.spans = append(c.buf[:0], "T:"...), c.spans[:0]
	// Table order is irrelevant to COUNT(*) semantics and to the join
	// featurizations (table bit-vectors, sorted sub-schema keys), but
	// duplicates are self-joins and must survive — sort, don't dedupe.
	c.names(q.Tables, false)

	c.buf = append(c.buf, "|J:"...)
	start := len(c.buf)
	for _, j := range q.Joins {
		c.join(j)
	}
	c.list(start, 0, true)

	c.buf = append(c.buf, "|W:"...)
	c.expr(q.Where)

	c.buf = append(c.buf, "|G:"...)
	c.names(q.GroupBy, true)
}

// part records buf[lo:] as one more part of the list being rendered.
func (c *canon) part(lo int) {
	c.spans = append(c.spans, span{int32(lo), int32(len(c.buf))})
}

func (c *canon) names(names []string, dedupe bool) {
	start := len(c.buf)
	for _, s := range names {
		c.buf = append(c.buf, s...)
		c.part(len(c.buf) - len(s))
	}
	c.list(start, 0, dedupe)
}

// join renders an equi-join with its sides in lexicographic order:
// "a.x = b.y" and "b.y = a.x" are the same predicate.
func (c *canon) join(j sqlparse.JoinPred) {
	lo := len(c.buf)
	c.buf = append(append(append(c.buf, j.LeftTable...), '.'), j.LeftCol...)
	mid := len(c.buf)
	c.buf = append(append(append(c.buf, j.RightTable...), '.'), j.RightCol...)
	end := len(c.buf)
	l, r := c.buf[lo:mid], c.buf[mid:end]
	if bytes.Compare(r, l) < 0 {
		l, r = r, l
	}
	c.buf = append(append(append(c.buf, l...), '='), r...)
	c.buf = c.buf[:lo+copy(c.buf[lo:], c.buf[end:])]
	c.part(lo)
}

// list rewrites buf[start:], which holds exactly the parts spans[from:]
// point at, as those parts sorted and \x01-joined — duplicates dropped when
// dedupe is set — and pops the spans. It returns how many parts it wrote.
func (c *canon) list(start, from int, dedupe bool) int {
	parts := c.spans[from:]
	slices.SortFunc(parts, func(a, b span) int {
		return bytes.Compare(c.buf[a.lo:a.hi], c.buf[b.lo:b.hi])
	})
	end, n := len(c.buf), 0
	for i, p := range parts {
		if dedupe && i > 0 && bytes.Equal(c.buf[p.lo:p.hi], c.buf[parts[i-1].lo:parts[i-1].hi]) {
			continue
		}
		if n++; n > 1 {
			c.buf = append(c.buf, 1)
		}
		c.buf = append(c.buf, c.buf[p.lo:p.hi]...)
	}
	c.buf = c.buf[:start+copy(c.buf[start:], c.buf[end:])]
	c.spans = c.spans[:from]
	return n
}

// expr renders a selection expression canonically: AND/OR children are
// flattened, individually canonicalized, sorted, and deduplicated
// (commutativity + idempotence); a single surviving child elides its
// wrapper. A nil expression renders empty.
func (c *canon) expr(e sqlparse.Expr) {
	var op byte
	var kids []sqlparse.Expr
	switch n := e.(type) {
	case nil:
		return
	case *sqlparse.Pred:
		c.pred(n)
		return
	case *sqlparse.And:
		op, kids = '&', n.Kids
	case *sqlparse.Or:
		op, kids = '|', n.Kids
	default:
		panic("core: unknown expression type in fingerprint")
	}
	start, from := len(c.buf), len(c.spans)
	c.buf = append(c.buf, '(', op, 1)
	c.children(op, kids)
	if c.list(start+3, from, true) == 1 {
		c.buf = c.buf[:start+copy(c.buf[start:], c.buf[start+3:])]
	} else {
		c.buf = append(c.buf, ')')
	}
}

// children renders the children of one n-ary AND/OR level as parts,
// flattening same-operator children in (associativity).
func (c *canon) children(op byte, kids []sqlparse.Expr) {
	for _, k := range kids {
		var inner []sqlparse.Expr
		switch n := k.(type) {
		case *sqlparse.And:
			if op == '&' {
				inner = n.Kids
			}
		case *sqlparse.Or:
			if op == '|' {
				inner = n.Kids
			}
		}
		if inner != nil {
			c.children(op, inner)
			continue
		}
		lo := len(c.buf)
		c.expr(k)
		c.part(lo)
	}
}

// pred renders one simple predicate. Over the integer domains the paper's
// QFTs assume, the strict comparisons qualify the same value sets as their
// closed neighbors, so "a > v" normalizes to "a >= v+1" and "a < v" to
// "a <= v-1" (guarding int64 overflow, where the strict form is kept
// verbatim). String literals are quoted with full escaping so hostile
// literal bytes cannot forge the canonical form of a different predicate.
func (c *canon) pred(p *sqlparse.Pred) {
	c.buf = append(append(c.buf, p.Attr...), 0)
	if p.Like {
		c.buf = strconv.AppendQuote(append(c.buf, "like\x00"...), *p.Str)
		return
	}
	op, val := p.Op, p.Val
	if p.Str == nil {
		switch {
		case op == sqlparse.OpGt && val < math.MaxInt64:
			op, val = sqlparse.OpGe, val+1
		case op == sqlparse.OpLt && val > math.MinInt64:
			op, val = sqlparse.OpLe, val-1
		}
	}
	c.buf = append(append(c.buf, op.String()...), 0)
	if p.Str != nil {
		c.buf = strconv.AppendQuote(c.buf, *p.Str)
	} else {
		c.buf = strconv.AppendInt(c.buf, val, 10)
	}
}
