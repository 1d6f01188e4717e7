// Package sqlparse implements a lexer, parser, and analysis utilities for
// the query class the paper studies: COUNT(*) queries over one or more
// tables with key/foreign-key join predicates and WHERE clauses made of
// simple selection predicates (attribute {=,<,>,<=,>=,<>,!=} literal)
// combined with AND and OR.
//
// The analysis half of the package implements the structural notions from
// the paper: conjunctive queries, mixed queries (Definition 3.3: a
// conjunction of per-attribute compound predicates), compound-predicate
// extraction, and per-attribute DNF conversion — exactly the decomposition
// Algorithm 2 (Limited Disjunction Encoding) consumes.
package sqlparse

import (
	"fmt"
	"strings"
)

// CmpOp is a comparison operator of a simple predicate. The set matches the
// paper's Section 3: {=, >, <, >=, <=, <>}; != is normalized to <> at parse
// time.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota // =
	OpNe              // <> (and !=)
	OpLt              // <
	OpLe              // <=
	OpGt              // >
	OpGe              // >=
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return fmt.Sprintf("CmpOp(%d)", int(op))
}

// Expr is a boolean selection expression: a Pred leaf or an And/Or node.
type Expr interface {
	isExpr()
	// String renders the expression as SQL.
	String() string
}

// Pred is a simple predicate comparing one attribute to one literal.
// Numeric literals are carried in Val. String literals are carried in Str
// until Resolve binds them to dictionary codes against a concrete table
// (Section 6, string predicates); after binding, Str is nil.
type Pred struct {
	Attr string // attribute name, possibly qualified as "table.column"
	Op   CmpOp
	Val  int64
	Str  *string // unresolved string literal, nil for numeric predicates
	// Like marks a string-prefix predicate (SQL "attr LIKE 'p%'"); Str
	// holds the prefix without the trailing %. Binding rewrites the
	// predicate into the range of dictionary codes the prefix covers
	// (exec.Bind), the Section 6 extension.
	Like bool
	// Qualified and Col are the column stamp exec.Bind writes. Col is 1 +
	// the position of Attr's column among its table's columns, 0 while the
	// predicate is unbound; Qualified is set when Attr names its table
	// ("t.a"). The stamp depends only on the table and Attr, so every query
	// over one table that shares this node agrees on it. Both sit in Like's
	// padding: a Pred stays 48 bytes.
	Qualified bool
	Col       int32
}

func (*Pred) isExpr() {}

// String renders the predicate as SQL, escaping embedded quotes in string
// literals (” per the SQL convention).
func (p *Pred) String() string {
	if p.Like {
		return fmt.Sprintf("%s LIKE '%s%%'", p.Attr, escapeQuotes(*p.Str))
	}
	if p.Str != nil {
		return fmt.Sprintf("%s %s '%s'", p.Attr, p.Op, escapeQuotes(*p.Str))
	}
	return fmt.Sprintf("%s %s %d", p.Attr, p.Op, p.Val)
}

func escapeQuotes(s string) string { return strings.ReplaceAll(s, "'", "''") }

// And is a conjunction of two or more sub-expressions.
type And struct{ Kids []Expr }

func (*And) isExpr() {}

// String renders the conjunction with parenthesized OR children.
func (a *And) String() string {
	return joinKids(a.Kids, " AND ", func(e Expr) bool { _, or := e.(*Or); return or })
}

// Or is a disjunction of two or more sub-expressions.
type Or struct{ Kids []Expr }

func (*Or) isExpr() {}

// String renders the disjunction; AND binds tighter so children need no
// parentheses.
func (o *Or) String() string { return joinKids(o.Kids, " OR ", func(Expr) bool { return false }) }

func joinKids(kids []Expr, sep string, paren func(Expr) bool) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		s := k.String()
		if paren(k) {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, sep)
}

// JoinPred is an equi-join predicate between two columns, e.g.
// "t.id = ci.movie_id". The paper assumes tables are joined following their
// key/foreign-key relationships (Section 2.1.2).
type JoinPred struct {
	LeftTable, LeftCol   string
	RightTable, RightCol string
}

// String renders the join predicate as SQL.
func (j JoinPred) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", j.LeftTable, j.LeftCol, j.RightTable, j.RightCol)
}

// Query is a parsed COUNT(*) query.
type Query struct {
	// Tables lists the referenced tables in FROM order.
	Tables []string
	// Joins holds the equi-join predicates extracted from the WHERE clause.
	Joins []JoinPred
	// Where holds the selection expression (join predicates removed), or
	// nil when the query has no selection predicates.
	Where Expr
	// GroupBy lists grouping attributes (Section 6 extension); empty for
	// plain COUNT(*) queries.
	GroupBy []string
}

// String renders the query as SQL in the paper's style.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT count(*) FROM ")
	b.WriteString(strings.Join(q.Tables, ", "))
	conds := make([]string, 0, len(q.Joins)+1)
	for _, j := range q.Joins {
		conds = append(conds, j.String())
	}
	if q.Where != nil {
		conds = append(conds, q.Where.String())
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(q.GroupBy, ", "))
	}
	b.WriteString(";")
	return b.String()
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	c := &Query{
		Tables:  append([]string(nil), q.Tables...),
		Joins:   append([]JoinPred(nil), q.Joins...),
		GroupBy: append([]string(nil), q.GroupBy...),
	}
	if q.Where != nil {
		c.Where = CloneExpr(q.Where)
	}
	return c
}

// CloneExpr returns a deep copy of an expression tree.
func CloneExpr(e Expr) Expr {
	switch n := e.(type) {
	case *Pred:
		p := *n
		if n.Str != nil {
			s := *n.Str
			p.Str = &s
		}
		return &p
	case *And:
		kids := make([]Expr, len(n.Kids))
		for i, k := range n.Kids {
			kids[i] = CloneExpr(k)
		}
		return &And{Kids: kids}
	case *Or:
		kids := make([]Expr, len(n.Kids))
		for i, k := range n.Kids {
			kids[i] = CloneExpr(k)
		}
		return &Or{Kids: kids}
	}
	panic(fmt.Sprintf("sqlparse: unknown expr %T", e))
}

// NewAnd builds a conjunction, flattening nested Ands and eliding the node
// for zero or one child.
func NewAnd(kids ...Expr) Expr { return newNary(kids, true) }

// NewOr builds a disjunction, flattening nested Ors and eliding the node for
// zero or one child.
func NewOr(kids ...Expr) Expr { return newNary(kids, false) }

func newNary(kids []Expr, isAnd bool) Expr {
	flat := make([]Expr, 0, len(kids))
	for _, k := range kids {
		if k == nil {
			continue
		}
		switch n := k.(type) {
		case *And:
			if isAnd {
				flat = append(flat, n.Kids...)
				continue
			}
		case *Or:
			if !isAnd {
				flat = append(flat, n.Kids...)
				continue
			}
		}
		flat = append(flat, k)
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	}
	if isAnd {
		return &And{Kids: flat}
	}
	return &Or{Kids: flat}
}
