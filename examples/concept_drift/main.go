// Concept drift: what happens when test queries look nothing like training
// queries (the paper's Section 5.5.1 experiment).
//
// Models train only on low-dimensional queries (at most two distinct
// attributes) and are tested on high-dimensional ones (three or more).
// Feature vectors and result-size distributions both shift. The paper's
// finding — gradient boosting generalizes across the drift while the neural
// network overfits, and the partition-based encodings drift most gracefully
// — reproduces here.
//
// The daemon serves GB alone; the network is the experiment harness's
// (internal/bench), which this example borrows it from.
//
// Run with: go run ./examples/concept_drift
package main

import (
	"fmt"
	"log"

	"qfe/internal/bench"
	"qfe/internal/bench/nn"
	"qfe/internal/bench/qft"
	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/metrics"
	"qfe/internal/ml/gb"
	"qfe/internal/table"
	"qfe/internal/workload"
)

func main() {
	forest, err := dataset.Forest(dataset.ForestConfig{
		Rows: 10_000, QuantAttrs: 8, BinaryAttrs: 2, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	db := table.NewDB()
	db.MustAdd(forest)

	set, err := workload.Conjunctive(forest, workload.ConjConfig{
		Count: 4_000, MaxAttrs: 8, MaxNotEquals: 3, Seed: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	train, test := set.SplitByAttrs(2)
	fmt.Printf("training: %d queries with <= 2 attributes (mean cardinality %.0f)\n",
		len(train), train.MeanCard())
	fmt.Printf("testing:  %d queries with >= 3 attributes (mean cardinality %.0f)\n\n",
		len(test), test.MeanCard())
	fmt.Println("the drift: test queries are more selective AND activate feature-vector")
	fmt.Println("regions the model never saw — both input and output distributions move.")
	fmt.Println()

	gbCfg := gb.DefaultConfig()
	nnCfg := nn.DefaultConfig()
	nnCfg.Epochs = 25

	for _, m := range []struct {
		name    string
		factory estimator.RegressorFactory
	}{
		{"GB", estimator.NewGBFactory(gbCfg)},
		{"NN", bench.NewNNFactory(nnCfg)},
	} {
		for _, name := range []string{"simple", "conjunctive"} {
			est, err := estimator.NewLocal(db, estimator.LocalConfig{
				NewFeaturizer: qft.Factory(name),
				Opts:          core.Options{MaxEntriesPerAttr: 32, AttrSel: true},
				NewRegressor:  m.factory,
			})
			if err != nil {
				log.Fatal(err)
			}
			if err := est.Train(train); err != nil {
				log.Fatal(err)
			}
			// In-distribution reference (a held-out slice of the training
			// regime) versus the drifted test queries.
			ref, err := estimator.Evaluate(est, train[:min(300, len(train))])
			if err != nil {
				log.Fatal(err)
			}
			drift, err := estimator.Evaluate(est, test)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%s + %-12s train-regime median %6.2f  |  drifted: %v\n",
				m.name, name, metrics.Summarize(ref).Median, metrics.Summarize(drift))
		}
	}
	fmt.Println("\n(watch the gap between train-regime and drifted errors: it stays small")
	fmt.Println(" for GB and explodes for NN + simple — Figure 5 of the paper)")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
