package mscn

import (
	"math"
	"testing"

	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/sqlparse"
	"qfe/internal/workload"
)

// TestEstimatorOnJoins is one end-to-end pass over the join stack for MSCN
// original and modified: IMDb star schema, training workload, JOB-light-style
// suite. Tiny sizes — correctness of plumbing, not accuracy.
func TestEstimatorOnJoins(t *testing.T) {
	db, err := dataset.IMDB(dataset.IMDBConfig{Titles: 600, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	schema := dataset.IMDBSchema()
	trainCfg := workload.DefaultJOBLightConfig()
	trainCfg.Count = 400
	trainCfg.Seed = 11
	train, err := workload.JoinTraining(db, schema, trainCfg)
	if err != nil {
		t.Fatal(err)
	}
	testCfg := workload.DefaultJOBLightConfig()
	testCfg.Count = 25
	testCfg.Seed = 12
	test, err := workload.JOBLight(db, schema, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Epochs = 10
	cfg.HiddenSet = 16
	cfg.HiddenOut = 32
	for _, mode := range []Mode{Original, PerAttribute} {
		est, err := New(db, schema, mode, core.Options{MaxEntriesPerAttr: 16, AttrSel: true}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := est.Train(train); err != nil {
			t.Fatal(err)
		}
		sum, err := estimator.Summarize(est, test)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s on joins: %v", est.Name(), sum)
		if math.IsNaN(sum.Mean) || sum.Median < 1 {
			t.Fatalf("degenerate MSCN summary %v", sum)
		}
		if est.MemoryBytes() <= 0 {
			t.Error("MSCN MemoryBytes not positive")
		}
	}
}

func TestMSCNRejectsEstimateBeforeTrain(t *testing.T) {
	db, err := dataset.IMDB(dataset.IMDBConfig{Titles: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	est, err := New(db, dataset.IMDBSchema(), Original, core.Options{MaxEntriesPerAttr: 64, AttrSel: true}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Estimate(sqlparse.MustParse("SELECT count(*) FROM title")); err == nil {
		t.Error("expected error before Train")
	}
}
