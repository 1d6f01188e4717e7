// TPC-H Orders: the paper's own running example (the mixed query below
// Definition 3.3), end to end — string predicates bound against the
// dictionary, date predicates over a gappy yyyymmdd encoding handled by
// equi-depth partitions, and Limited Disjunction Encoding feeding a
// gradient-boosting estimator.
//
// The example estimates the paper's exact query:
//
//	SELECT count(*) FROM Orders WHERE
//	  (o_orderdate >= '1994-01' AND o_orderdate <= '1994-12'
//	   AND o_orderdate <> '1994-07-04'
//	   OR
//	   o_orderdate >= '1996-01' AND o_orderdate <= '1996-12'
//	   AND o_orderdate <> '1996-07-04') AND
//	  (o_orderstatus = 'P' OR o_orderstatus = 'F') AND
//	  (o_totalprice > 1000 AND o_totalprice < 2000);
//
// Run with: go run ./examples/tpch_orders
package main

import (
	"fmt"
	"log"

	"qfe/internal/bench/histogram"
	"qfe/internal/core"
	"qfe/internal/estimator"
	"qfe/internal/exec"
	"qfe/internal/metrics"
	"qfe/internal/ml/gb"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/workload"
)

func main() {
	orders, err := tpchOrders(defaultTPCHConfig())
	if err != nil {
		log.Fatal(err)
	}
	db := table.NewDB()
	db.MustAdd(orders)
	fmt.Printf("orders: %d rows, columns %v\n\n", orders.NumRows(), orders.ColumnNames())

	// The paper's example query, dates written as the integer yyyymmdd
	// encoding (encodeDate) and statuses as string literals that
	// exec.Bind resolves against the dictionary.
	src := fmt.Sprintf(`SELECT count(*) FROM orders WHERE
		(o_orderdate >= %d AND o_orderdate <= %d AND o_orderdate <> %d
		 OR o_orderdate >= %d AND o_orderdate <= %d AND o_orderdate <> %d) AND
		(o_orderstatus = 'P' OR o_orderstatus = 'F') AND
		(o_totalprice > 1000 AND o_totalprice < 2000)`,
		encodeDate(1994, 1, 1), encodeDate(1994, 12, 31), encodeDate(1994, 7, 4),
		encodeDate(1996, 1, 1), encodeDate(1996, 12, 31), encodeDate(1996, 7, 4))
	q, err := sqlparse.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	if err := exec.Bind(q, db); err != nil {
		log.Fatal(err)
	}
	fmt.Println("the paper's Definition 3.3 example query (bound):")
	fmt.Printf("  %s\n\n", q)

	// A mixed training workload over the same table.
	train, err := workload.Mixed(orders, workload.MixedConfig{
		ConjConfig:  workload.ConjConfig{Count: 3_000, MaxAttrs: 3, MaxNotEquals: 3, Seed: 1},
		MaxBranches: 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Equi-depth partitions absorb the yyyymmdd encoding's impossible gaps
	// (month 13..99 never occurs): boundaries land where the data lives.
	meta, err := histogram.PartitionedMeta(orders, 32, histogram.EquiDepth)
	if err != nil {
		log.Fatal(err)
	}
	date, _ := meta.Attr("o_orderdate")
	fmt.Printf("o_orderdate: domain [%d, %d], %d equi-depth partitions\n",
		date.Min, date.Max, date.NEntries)
	lo, hi := date.BucketRange(0)
	fmt.Printf("  first partition covers [%d, %d] — boundaries follow the data, not the gaps\n\n", lo, hi)

	// Train GB + Limited Disjunction Encoding. The estimator.Local API
	// builds uniform partitions; here we drive core directly to use the
	// equi-depth meta (the lower-level, fully pluggable path).
	opts := core.Options{MaxEntriesPerAttr: 32, AttrSel: true}
	f := core.NewComplex(meta, opts)
	X := make([][]float64, len(train))
	y := make([]float64, len(train))
	for i, l := range train {
		vec, err := f.Featurize(l.Query.Where)
		if err != nil {
			log.Fatal(err)
		}
		X[i] = vec
		y[i] = estimator.Log2Label(float64(l.Card))
	}
	model, err := gb.Train(X, y, gb.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	vec, err := f.Featurize(q.Where)
	if err != nil {
		log.Fatal(err)
	}
	est := estimator.FromLog2Label(model.Predict(vec))
	truth, err := exec.Count(db, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimate: %.0f   truth: %d   q-error: %.2f\n\n",
		est, truth, metrics.QError(float64(truth), est))

	// For contrast: the Postgres-style independence baseline on the same
	// query (it handles per-attribute ORs, but not the date-status
	// correlation baked into the generator).
	ind := &estimator.Independence{DB: db}
	pg, err := ind.Estimate(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("independence baseline: %.0f (q-error %.2f)\n",
		pg, metrics.QError(float64(truth), pg))
}
