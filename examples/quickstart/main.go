// Quickstart: featurize queries with Universal Conjunction Encoding, train
// a gradient-boosting estimator on labeled queries, and estimate new ones.
//
// This is the smallest end-to-end tour of the library:
//
//  1. build (or load) a table,
//  2. generate a labeled training workload with the exact executor,
//  3. train a local estimator = QFT + regressor,
//  4. estimate, and compare against the truth with the q-error.
//
// Run with: go run ./examples/quickstart
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
	// 1. A covertype-shaped table: 12 numeric attributes A1..A12 plus four
	// binary indicators, with strong cross-attribute correlation.
	forest, err := dataset.Forest(dataset.ForestConfig{
		Rows: 10_000, QuantAttrs: 8, BinaryAttrs: 2, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	db := table.NewDB()
	db.MustAdd(forest)

	// 2. A labeled conjunctive workload: random multi-predicate queries
	// counted exactly by the executor, empty results discarded.
	set, err := workload.Conjunctive(forest, workload.ConjConfig{
		Count: 2_500, MaxAttrs: 6, MaxNotEquals: 3, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	train, test := set.Split(2_000)

	// 3. A local estimator: Universal Conjunction Encoding (Algorithm 1 of
	// the paper) feeding a gradient-boosting regressor.
	est, err := estimator.NewLocal(db, estimator.LocalConfig{
		QFT:          "conjunctive",
		Opts:         core.Options{MaxEntriesPerAttr: 32, AttrSel: true},
		NewRegressor: estimator.NewGBFactory(gb.DefaultConfig()),
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := est.Train(train); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained GB + conjunctive on %d queries (%.1f kB model)\n\n",
		len(train), float64(est.MemoryBytes())/1024)

	// 4a. Estimate a hand-written query, bound against the database first:
	// exec.Bind resolves its names and stamps each predicate with its
	// column, which is what the featurizer reads.
	q, err := sqlparse.Parse(
		"SELECT count(*) FROM forest WHERE A1 >= 2600 AND A1 <= 3100 AND A3 > 20 AND A3 <> 25")
	if err == nil {
		err = exec.Bind(q, db)
	}
	if err != nil {
		log.Fatal(err)
	}
	got, err := est.Estimate(q)
	if err != nil {
		log.Fatal(err)
	}
	truth, err := exec.Count(db, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query:    %s\n", q)
	fmt.Printf("estimate: %.0f   truth: %d   q-error: %.2f\n\n",
		got, truth, metrics.QError(float64(truth), got))

	// 4b. Evaluate on the held-out workload, the paper's summary style.
	sum, err := estimator.Summarize(est, test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("held-out q-errors over %d queries:\n  %v\n", len(test), sum)
}
