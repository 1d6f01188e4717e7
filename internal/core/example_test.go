package core_test

import (
	"fmt"

	"qfe/internal/core"
	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// exampleDB is a table t whose columns span the given [min, max] domains,
// in a database to bind queries against.
func exampleDB(cols map[string][2]int64, order ...string) (*table.DB, *table.Table) {
	t := table.New("t")
	for _, name := range order {
		span := cols[name]
		t.MustAddColumn(table.NewColumn(name, span[:]))
	}
	db := table.NewDB()
	db.MustAdd(t)
	return db, t
}

// ExampleConjunctive reproduces the paper's Section 3.2 featurization
// example: A < 7 AND 30 <= B <= 100 AND B <> 66 over attributes
// A in [-9, 50], B in [0, 115], C in {1, 2}, with n = 12. The query is bound
// first: exec.Bind stamps each predicate with its column, which is how the
// featurizer tells which attribute it constrains.
func ExampleConjunctive() {
	db, t := exampleDB(map[string][2]int64{"A": {-9, 50}, "B": {0, 115}, "C": {1, 2}}, "A", "B", "C")
	f := core.NewConjunctive(core.NewTableMeta(t, 12), core.Options{MaxEntriesPerAttr: 12, AttrSel: false})

	q := sqlparse.MustParse(
		"SELECT count(*) FROM t WHERE A < 7 AND B >= 30 AND B <= 100 AND B <> 66")
	if err := exec.Bind(q, db); err != nil {
		fmt.Println(err)
		return
	}
	vec, err := f.Featurize(q.Where)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("A:", vec[0:12])
	fmt.Println("B:", vec[12:24])
	fmt.Println("C:", vec[24:26])
	// Output:
	// A: [1 1 1 0.5 0 0 0 0 0 0 0 0]
	// B: [0 0 0 0.5 1 1 0.5 1 1 1 0.5 0]
	// C: [1 1]
}

// ExampleComplex featurizes a mixed query (Definition 3.3) with Limited
// Disjunction Encoding: each disjunct is featurized with Algorithm 1 and
// the per-attribute vectors merge by entry-wise max.
func ExampleComplex() {
	db, t := exampleDB(map[string][2]int64{"A": {-9, 50}}, "A")
	f := core.NewComplex(core.NewTableMeta(t, 12), core.Options{MaxEntriesPerAttr: 12, AttrSel: false})

	q := sqlparse.MustParse(
		"SELECT count(*) FROM t WHERE A > -2 AND A <= 30 AND A <> 7 OR A >= 42")
	if err := exec.Bind(q, db); err != nil {
		fmt.Println(err)
		return
	}
	vec, err := f.Featurize(q.Where)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(vec)
	// Output:
	// [0 0.5 1 0.5 1 1 1 1 0 0 0.5 1]
}

// ExampleGroupByVector shows the Section 6 GROUP BY encoding: one bit per
// attribute, set for each grouping attribute.
func ExampleGroupByVector() {
	meta := core.NewTableMetaFromAttrs("t", []core.AttrMeta{
		{Name: "A1", Min: 0, Max: 9}, {Name: "A2", Min: 0, Max: 9},
		{Name: "A3", Min: 0, Max: 9}, {Name: "A4", Min: 0, Max: 9},
		{Name: "A5", Min: 0, Max: 9},
	}, 4)
	vec, _ := core.GroupByVector(meta, []string{"A2", "A4"})
	fmt.Println(vec)
	// Output:
	// [0 1 0 1 0]
}
