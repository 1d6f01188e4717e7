// JOB-light joins: local per-sub-schema estimators over a star schema,
// evaluated on a JOB-light-style suite of join queries — the setting of the
// paper's Tables 1 and 2.
//
// The example builds the IMDb-shaped star schema (title plus five satellite
// tables joined on movie_id), trains one model per connected sub-schema,
// and routes every test query to its sub-schema's model.
//
// Run with: go run ./examples/joblight_joins
package main

import (
	"fmt"
	"log"

	"qfe/internal/bench/qft"
	"qfe/internal/catalog"
	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/metrics"
	"qfe/internal/ml/gb"
	"qfe/internal/workload"
)

func main() {
	db, err := dataset.IMDB(dataset.IMDBConfig{Titles: 3_000, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	schema := dataset.IMDBSchema()
	fmt.Printf("star schema: %v\n", schema.Tables)
	fmt.Printf("connected sub-schemas: %d (one local model each)\n\n",
		len(schema.ConnectedSubSchemas(0)))

	// Stratified training: a batch of labeled queries per sub-schema, so
	// every sub-schema gets a model.
	train, err := workload.StratifiedJoinTraining(db, schema, 40, 0, 5, 11)
	if err != nil {
		log.Fatal(err)
	}
	test, err := workload.JOBLight(db, schema, workload.DefaultJOBLightConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training queries: %d   JOB-light-style test queries: %d\n", len(train), len(test))
	fmt.Printf("example test query:\n  %s\n\n", test[0].Query)

	for _, name := range []string{"simple", "range", "conjunctive"} {
		est, err := estimator.NewLocal(db, estimator.LocalConfig{
			NewFeaturizer: qft.Factory(name),
			Opts:          core.Options{MaxEntriesPerAttr: 32, AttrSel: true},
			NewRegressor:  estimator.NewGBFactory(gb.DefaultConfig()),
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := est.Train(train); err != nil {
			log.Fatal(err)
		}
		qerrs, err := estimator.Evaluate(est, test)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("GB + %-12s %v  (%d models)\n", name+":", metrics.Summarize(qerrs), est.NumModels())
	}

	// Show the routing: which sub-schema one query lands on.
	q := test[0].Query
	fmt.Printf("\nquery over tables %v routes to local model %q\n",
		q.Tables, catalog.SubSchemaKey(q.Tables))
	fmt.Println("\n(JOB-light has at most one range per attribute, so range encoding is")
	fmt.Println(" already lossless here — the paper's Table 1 observation)")
}
