package core

import (
	"fmt"
	"slices"

	"qfe/internal/sqlparse"
)

// SplitWhereByTable splits the top-level conjunction of a multi-table
// query's WHERE by table: dst[i].Kids becomes the conjuncts over tables[i],
// so &dst[i] is that table's selection (an And of one conjunct, or of none —
// no predicates — is read by every featurizer as what it says). dst must be
// at least len(tables) long; its Kids are overwritten and their capacity
// reused, so a caller that keeps dst across calls splits without allocating.
// Every conjunct must reference exactly one table; conjuncts over tables
// not listed are dropped. For a single-table query unqualified attributes
// are allowed and map to that table.
func SplitWhereByTable(q *sqlparse.Query, tables []string, dst []sqlparse.And) error {
	single := ""
	if len(q.Tables) == 1 {
		single = q.Tables[0]
	}
	for i := range tables {
		dst[i].Kids = dst[i].Kids[:0]
	}
	var one [1]sqlparse.Expr
	kids := one[:0]
	if and, ok := q.Where.(*sqlparse.And); ok {
		kids = and.Kids
	} else if q.Where != nil {
		kids = append(kids, q.Where)
	}
	for _, kid := range kids {
		tbl, err := conjunctTable(kid, kid, single, "")
		if err != nil {
			return err
		}
		if i := slices.Index(tables, tbl); i >= 0 {
			dst[i].Kids = append(dst[i].Kids, kid)
		}
	}
	return nil
}

// conjunctTable resolves the one table every predicate under expr (part of
// the top-level conjunct conj) references, given that the predicates seen so
// far reference tbl ("": none yet).
func conjunctTable(conj, expr sqlparse.Expr, single, tbl string) (string, error) {
	var kids []sqlparse.Expr
	switch n := expr.(type) {
	case *sqlparse.Pred:
		pt := tableOf(n.Attr, single)
		if pt == "" {
			return "", fmt.Errorf("core: unqualified attribute %q in multi-table query", n.Attr)
		}
		if tbl != "" && tbl != pt {
			return "", Unsupported(fmt.Errorf("core: conjunct %q spans tables %q and %q", conj, tbl, pt))
		}
		return pt, nil
	case *sqlparse.And:
		kids = n.Kids
	case *sqlparse.Or:
		kids = n.Kids
	}
	for _, k := range kids {
		var err error
		if tbl, err = conjunctTable(conj, k, single, tbl); err != nil {
			return "", err
		}
	}
	return tbl, nil
}

func tableOf(attr, single string) string {
	for i := 0; i < len(attr); i++ {
		if attr[i] == '.' {
			return attr[:i]
		}
	}
	return single
}
