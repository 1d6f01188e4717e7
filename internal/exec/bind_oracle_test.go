package exec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// oracleBind is Bind as it was: every AND/OR node rebuilt bottom-up whether
// or not a string predicate sits below it, every leaf's column resolved on
// its own. Kept as the differential oracle of TestBindMatchesOracle; only
// tests call it.
func oracleBind(q *sqlparse.Query, db *table.DB) error {
	if q.Where == nil {
		return nil
	}
	bound, err := oracleBindExpr(q.Where, db, q)
	if err != nil {
		return err
	}
	q.Where = bound
	return nil
}

func oracleBindExpr(expr sqlparse.Expr, db *table.DB, q *sqlparse.Query) (sqlparse.Expr, error) {
	switch n := expr.(type) {
	case *sqlparse.Pred:
		col, stamp, err := oracleResolveColumn(db, q, n.Attr)
		if err != nil {
			return nil, err
		}
		qual := strings.Contains(n.Attr, ".")
		if n.Str == nil {
			n.Col, n.Qualified = stamp, qual
			return n, nil
		}
		if col.Dict == nil {
			return nil, fmt.Errorf("exec: string literal %q compared to non-string column %s", *n.Str, n.Attr)
		}
		rewrite := &binder{pos: stamp, qual: qual}
		if n.Like {
			return rewrite.bindLikePred(n, col.Dict), nil
		}
		return rewrite.bindStringPred(n, col.Dict), nil
	case *sqlparse.And:
		kids := make([]sqlparse.Expr, len(n.Kids))
		for i, k := range n.Kids {
			b, err := oracleBindExpr(k, db, q)
			if err != nil {
				return nil, err
			}
			kids[i] = b
		}
		return sqlparse.NewAnd(kids...), nil
	case *sqlparse.Or:
		kids := make([]sqlparse.Expr, len(n.Kids))
		for i, k := range n.Kids {
			b, err := oracleBindExpr(k, db, q)
			if err != nil {
				return nil, err
			}
			kids[i] = b
		}
		return sqlparse.NewOr(kids...), nil
	}
	return nil, fmt.Errorf("exec: unknown expr %T", expr)
}

// oracleResolveColumn finds the column a (possibly qualified) attribute
// refers to, as Bind did before it remembered the last name it resolved, and
// its stamp: 1 + the column's position, found by walking the columns.
func oracleResolveColumn(db *table.DB, q *sqlparse.Query, attr string) (*table.Column, int32, error) {
	tblName, colName := splitAttr(attr)
	if tblName == "" {
		if len(q.Tables) != 1 {
			return nil, 0, fmt.Errorf("exec: unqualified attribute %q in multi-table query", attr)
		}
		tblName = q.Tables[0]
	}
	t := db.Table(tblName)
	if t == nil {
		return nil, 0, fmt.Errorf("exec: unknown table %q", tblName)
	}
	for i, col := range t.Columns() {
		if col.Name == colName {
			return col, int32(i + 1), nil
		}
	}
	return nil, 0, fmt.Errorf("exec: table %q has no column %q", tblName, colName)
}

// bindDB has a string column, a second one, and an integer column.
func bindDB() *table.DB {
	tbl := table.New("movies")
	tbl.MustAddColumn(table.NewStringColumn("name", []string{"apollo", "apex", "banana", "apogee", "zebra", "apex"}))
	tbl.MustAddColumn(table.NewStringColumn("kind", []string{"tv", "film", "film", "tv", "short", "film"}))
	tbl.MustAddColumn(table.NewColumn("year", []int64{1995, 2001, 2001, 1987, 2010, 1999}))
	return singleDB(tbl)
}

// TestBindMatchesOracle: over string, LIKE, numeric-only and failing queries
// the bound tree is deeply equal to the always-rebuilding oracle's and the
// error text the same.
func TestBindMatchesOracle(t *testing.T) {
	db := bindDB()
	for _, where := range []string{
		"",
		"year >= 1990",
		"year >= 1990 AND (year < 2005 OR year = 2010) AND year <> 2001",
		"name = 'apex'",
		"name = 'nosuch' OR name <> 'nosuch' OR name < 'b' OR name >= 'b'",
		"name LIKE 'ap%'",
		"name LIKE 'q%'",
		"name LIKE '%'",
		"year >= 1990 AND name LIKE 'ap%'",
		"year >= 1990 AND (name LIKE 'ap%' OR kind = 'tv') AND year < 2005",
		"(year >= 1990 AND year < 2005 OR year = 2010) AND (kind = 'film' AND name LIKE 'a%' OR kind = 'tv')",
		"(year = 1 OR year = 2) AND (kind = 'film' OR (year > 3 AND name LIKE 'ap%'))",
		"year = 'x'",
		"year LIKE 'x%'",
		"year >= 1990 AND (nosuch = 'x' OR kind = 'tv')",
		"movies.year >= 1990 AND (movies.name LIKE 'ap%' OR kind = 'tv') AND movies.year < 2005",
		"movies.nosuch = 1",
	} {
		src := "SELECT count(*) FROM movies"
		if where != "" {
			src += " WHERE " + where
		}
		got, want := sqlparse.MustParse(src), sqlparse.MustParse(src)
		gotErr, wantErr := Bind(got, db), oracleBind(want, db)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: Bind error = %v, oracle %v", src, gotErr, wantErr)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: bound tree differs:\n  got  %s\n  want %s", src, got, want)
		}
	}
}

// TestBindSharesWhatItDoesNotRewrite: a Where without string literals comes
// back as the same node (nothing rebuilt, nothing allocated), and a template
// subtree shared by two queries is never mutated — not its string leaves, not
// the Kids of the nodes above a rewritten leaf — but for its numeric leaf's
// column stamp, which both binds agree on.
func TestBindSharesWhatItDoesNotRewrite(t *testing.T) {
	db := bindDB()
	q := sqlparse.MustParse("SELECT count(*) FROM movies WHERE year >= 1990 AND (year < 2005 OR year = 2010)")
	before := q.Where
	if err := Bind(q, db); err != nil {
		t.Fatal(err)
	}
	if q.Where != before {
		t.Error("Bind rebuilt a Where that carries no string literal")
	}

	const tmpl = "SELECT count(*) FROM movies WHERE year >= 1990 AND (name LIKE 'ap%' OR kind = 'tv')"
	shared, pristine := sqlparse.MustParse(tmpl).Where, sqlparse.MustParse(tmpl).Where
	numeric := shared.(*sqlparse.And).Kids[0]
	pristine.(*sqlparse.And).Kids[0].(*sqlparse.Pred).Col = 3 // year is movies' third column
	for i := 0; i < 2; i++ {
		q := &sqlparse.Query{Tables: []string{"movies"}, Where: shared}
		if err := Bind(q, db); err != nil {
			t.Fatalf("bind %d of the shared template: %v", i, err)
		}
		if !reflect.DeepEqual(shared, pristine) {
			t.Fatalf("bind %d mutated the shared template: %s", i, shared)
		}
		if q.Where == shared {
			t.Fatal("Bind left a string predicate unbound")
		}
		if q.Where.(*sqlparse.And).Kids[0] != numeric {
			t.Error("the untouched numeric leaf was copied rather than shared")
		}
		if n, err := Count(db, q); err != nil || n != 3 {
			t.Errorf("count through the bound copy = %d, %v; want 3", n, err)
		}
	}
}

// TestBindResolvesEveryName: every name a query uses must exist — the tables
// in FROM, both columns of a join, and every predicate's column, numeric
// ones included — and a qualified column's table must be in FROM. Each
// failure names what is missing; a query whose names all resolve binds.
func TestBindResolvesEveryName(t *testing.T) {
	db := bindDB()
	casts := table.New("casts")
	casts.MustAddColumn(table.NewColumn("movie_id", []int64{1, 2, 3}))
	casts.MustAddColumn(table.NewColumn("role", []int64{1, 1, 2}))
	db.MustAdd(casts)
	for _, tc := range []struct{ sql, err string }{
		{"SELECT count(*) FROM movies WHERE year >= 1990 AND year <= 2000 AND kind = 'tv'", ""},
		{"SELECT count(*) FROM movies WHERE movies.year >= 1990 OR year = 1987", ""},
		{"SELECT count(*) FROM movies, casts WHERE movies.year = casts.movie_id AND casts.role = 1", ""},
		{"SELECT count(*) FROM nosuch", `exec: unknown table "nosuch"`},
		{"SELECT count(*) FROM movies, nosuch WHERE movies.year > 1", `exec: unknown table "nosuch"`},
		{"SELECT count(*) FROM movies WHERE NOPE = 5", `exec: table "movies" has no column "NOPE"`},
		{"SELECT count(*) FROM movies WHERE year >= 1990 AND (year < 2000 OR NOPE = 5)", `exec: table "movies" has no column "NOPE"`},
		{"SELECT count(*) FROM movies WHERE other.year = 5", `exec: table "other" is not in the query's FROM [movies]`},
		{"SELECT count(*) FROM movies WHERE casts.role = 1", `exec: table "casts" is not in the query's FROM [movies]`},
		{"SELECT count(*) FROM movies, casts WHERE movies.year = casts.nope", `exec: table "casts" has no column "nope"`},
		{"SELECT count(*) FROM movies, casts WHERE movies.nope = casts.movie_id", `exec: table "movies" has no column "nope"`},
	} {
		err := Bind(sqlparse.MustParse(tc.sql), db)
		if got := fmt.Sprint(err); (tc.err == "" && err != nil) || (tc.err != "" && got != tc.err) {
			t.Errorf("%s: err = %v, want %q", tc.sql, err, tc.err)
		}
	}
}
