package exec_test

import (
	"context"
	"strings"
	"testing"

	"qfe/internal/core"
	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// TestDroppedRowsFailLoudly: once DB.DropRows has freed a table's rows, every
// reader of rows fails and names the table — errors from what returns one,
// panics from what does not — instead of counting or weighing a table that
// now reads as empty. The statistics stay, so NumRows still answers.
func TestDroppedRowsFailLoudly(t *testing.T) {
	tbl := table.New("orders")
	tbl.MustAddColumn(table.NewColumn("a", []int64{1, 2, 3, 4, 5}))
	tbl.MustAddColumn(table.NewColumn("b", []int64{5, 5, 6, 6, 7}))
	db := table.NewDB()
	db.MustAdd(tbl)
	q := sqlparse.MustParse("SELECT count(*) FROM orders WHERE a >= 2")
	if n, err := exec.Count(db, q); err != nil || n != 4 {
		t.Fatalf("before the drop: Count = %d, %v; want 4", n, err)
	}
	meta := core.NewTableMeta(tbl, 4)
	db.DropRows()
	if n := tbl.NumRows(); n != 5 {
		t.Fatalf("after the drop NumRows = %d, want the 5 of the statistics", n)
	}

	named := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "orders") {
			t.Errorf("%s after the drop: error %v, want one naming table orders", what, err)
		}
	}
	counts := map[string]func() (int64, error){
		"Count":    func() (int64, error) { return exec.Count(db, q) },
		"CountCtx": func() (int64, error) { return exec.CountCtx(context.Background(), db, q) },
		"Count with no WHERE": func() (int64, error) {
			return exec.Count(db, sqlparse.MustParse("SELECT count(*) FROM orders"))
		},
	}
	for what, count := range counts {
		n, err := count()
		if err == nil {
			t.Errorf("%s after the drop returned the count %d", what, n)
		}
		named(what, err)
	}

	panics := map[string]func(){
		"Column.Dictionary": func() { tbl.Column("a").Dictionary() },
		"AttachWeights":     func() { core.AttachWeights(meta, tbl) },
	}
	for what, call := range panics {
		func() {
			defer func() {
				r := recover()
				err, _ := r.(error)
				if r == nil {
					t.Errorf("%s after the drop returned", what)
					return
				}
				named(what, err)
			}()
			call()
		}()
	}
}
