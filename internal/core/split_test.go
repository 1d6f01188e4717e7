package core

import (
	"testing"

	"qfe/internal/sqlparse"
)

func TestSplitWhereByTable(t *testing.T) {
	tables := []string{"cast_info", "title"}
	per := make([]sqlparse.And, 2)
	q := sqlparse.MustParse("SELECT count(*) FROM title, cast_info WHERE title.id = cast_info.movie_id AND title.year > 2000 AND cast_info.role_id = 1 AND title.year < 2015")
	if err := SplitWhereByTable(q, tables, per); err != nil {
		t.Fatal(err)
	}
	if len(per[0].Kids) != 1 || len(per[1].Kids) != 2 {
		t.Errorf("cast_info conjuncts = %v, title conjuncts = %v", per[0].Kids, per[1].Kids)
	}
	// Single-table queries allow unqualified attributes; the buffers are
	// reused, and a table without conjuncts gets none.
	q2 := sqlparse.MustParse("SELECT count(*) FROM title WHERE year > 2000")
	if err := SplitWhereByTable(q2, tables, per); err != nil {
		t.Fatal(err)
	}
	if len(per[0].Kids) != 0 || len(per[1].Kids) != 1 {
		t.Errorf("unqualified attribute not routed to the single table: %v", per)
	}
	// Multi-table queries do not, and a conjunct may not span tables.
	year := &sqlparse.Pred{Attr: "title.year", Op: sqlparse.OpGt, Val: 2000}
	for _, where := range []sqlparse.Expr{
		&sqlparse.Pred{Attr: "year", Op: sqlparse.OpGt, Val: 2000},
		sqlparse.NewOr(year, &sqlparse.Pred{Attr: "cast_info.role_id", Op: sqlparse.OpEq, Val: 1}),
	} {
		bad := &sqlparse.Query{Tables: []string{"title", "cast_info"}, Where: where}
		if err := SplitWhereByTable(bad, tables, per); err == nil {
			t.Errorf("%s: split accepted", where)
		}
	}
}
