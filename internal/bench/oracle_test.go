package bench

import (
	"testing"

	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/table"
	"qfe/internal/workload"
)

func TestOracleIsPerfect(t *testing.T) {
	tbl, err := dataset.Forest(dataset.ForestConfig{Rows: 4000, QuantAttrs: 5, BinaryAttrs: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	db := table.NewDB()
	db.MustAdd(tbl)
	set, err := workload.Conjunctive(tbl, workload.ConjConfig{Count: 50, MaxAttrs: 5, MaxNotEquals: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	qerrs, err := estimator.Evaluate(&Oracle{DB: db}, set)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qerrs {
		if q != 1 {
			t.Fatalf("oracle q-error %v at query %d", q, i)
		}
	}
}
