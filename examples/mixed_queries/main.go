// Mixed queries: featurizing AND/OR predicate combinations with Limited
// Disjunction Encoding (Algorithm 2 of the paper) — the first QFT designed
// for queries with disjunctions.
//
// The example walks through the paper's own Section 3.3 featurization
// example entry by entry, then trains GB + complex on a mixed workload and
// compares it against the Postgres-style independence baseline.
//
// Run with: go run ./examples/mixed_queries
package main

import (
	"fmt"
	"log"

	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/exec"
	"qfe/internal/metrics"
	"qfe/internal/ml/gb"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/workload"
)

func main() {
	// --- Part 1: the paper's worked example (Section 3.3). ---
	// Attributes A in [-9, 50], B in [0, 115], C in {1, 2}; n = 12. The
	// query is bound against the table first: exec.Bind stamps each
	// predicate with its column, which is what the featurizer reads.
	t := table.New("t")
	t.MustAddColumn(table.NewColumn("A", []int64{-9, 50}))
	t.MustAddColumn(table.NewColumn("B", []int64{0, 115}))
	t.MustAddColumn(table.NewColumn("C", []int64{1, 2}))
	tdb := table.NewDB()
	tdb.MustAdd(t)
	f := core.NewComplex(core.NewTableMeta(t, 12), core.Options{MaxEntriesPerAttr: 12, AttrSel: true})

	q := sqlparse.MustParse(
		"SELECT count(*) FROM t WHERE (A > -2 AND A <= 30 AND A <> 7 OR A >= 42) AND B >= 40")
	if err := exec.Bind(q, tdb); err != nil {
		log.Fatal(err)
	}
	vec, err := f.Featurize(q.Where)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Limited Disjunction Encoding of")
	fmt.Printf("  %s\n", q)
	fmt.Printf("  A  partitions: %v  (selectivity %.3f)\n", vec[0:12], vec[12])
	fmt.Printf("  B  partitions: %v  (selectivity %.3f)\n", vec[13:25], vec[25])
	fmt.Printf("  C  partitions: %v  (selectivity %.3f)\n", vec[26:28], vec[28])
	fmt.Println("  (1 = partition fully qualifies, 0.5 = partially, 0 = not at all)")
	fmt.Println()

	// --- Part 2: end to end on a mixed workload. ---
	forest, err := dataset.Forest(dataset.ForestConfig{
		Rows: 10_000, QuantAttrs: 8, BinaryAttrs: 2, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	db := table.NewDB()
	db.MustAdd(forest)

	set, err := workload.Mixed(forest, workload.MixedConfig{
		ConjConfig:  workload.ConjConfig{Count: 2_500, MaxAttrs: 6, MaxNotEquals: 3, Seed: 8},
		MaxBranches: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	train, test := set.Split(2_000)
	fmt.Printf("mixed workload example query:\n  %s\n\n", train[0].Query)

	est, err := estimator.NewLocal(db, estimator.LocalConfig{
		NewFeaturizer: func(m *core.TableMeta, o core.Options) core.Featurizer { return core.NewComplex(m, o) },
		Opts:          core.Options{MaxEntriesPerAttr: 32, AttrSel: true},
		NewRegressor:  estimator.NewGBFactory(gb.DefaultConfig()),
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := est.Train(train); err != nil {
		log.Fatal(err)
	}

	ours, err := estimator.Evaluate(est, test)
	if err != nil {
		log.Fatal(err)
	}
	ind, err := estimator.Evaluate(&estimator.Independence{DB: db}, test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GB + complex:  %v\n", metrics.Summarize(ours))
	fmt.Printf("independence:  %v\n", metrics.Summarize(ind))
	fmt.Println("\n(disjunctions make queries *less* selective; Algorithm 2's entry-wise")
	fmt.Println(" max merge mirrors exactly that, so the learned estimator keeps working)")
}
