package main

import (
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"qfe/internal/core"
	"qfe/internal/estimator"
	"qfe/internal/ml/gb"
	"qfe/internal/table"
	"qfe/internal/workload"
)

func TestRunWithSingleQuery(t *testing.T) {
	err := run(300, 2_000, 16,
		"SELECT count(*) FROM forest WHERE A1 >= 2500 AND A1 <= 3200", 1, "", "", 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunHeldOutEvaluation(t *testing.T) {
	if err := run(300, 2_000, 16, "", 2, "", "", 0, false, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run(100, 1_000, 16, "not sql", 1, "", "", 0, false, 0); err == nil {
		t.Error("unparseable query accepted")
	}
	// A grouped query asks for a group count; the row estimate of its WHERE
	// is not an answer to it. Refused with the flags, before a table is built:
	// Rows 0 would be the next error.
	err := run(100, 0, 16, "SELECT count(*) FROM forest WHERE A1 >= 3 GROUP BY A2", 1, "", "", 0, false, 0)
	if err == nil || !strings.Contains(err.Error(), "group counts") {
		t.Errorf("GROUP BY query: err = %v, want a refusal naming group counts", err)
	}
}

func TestRunSaveAndLoad(t *testing.T) {
	path := t.TempDir() + "/model.json"
	if err := run(200, 1_500, 16, "", 3, path, "", 0, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := run(200, 1_500, 16,
		"SELECT count(*) FROM forest WHERE A1 >= 2500", 3, "", path, 0, false, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithFallbackAndTimeout(t *testing.T) {
	// The resilient chain must serve both the single-query and the
	// evaluation path; a generous deadline keeps the learned stage in play.
	if err := run(200, 1_500, 16,
		"SELECT count(*) FROM forest WHERE A1 >= 2500", 4, "", "", 5*time.Second, true, 0); err != nil {
		t.Fatal(err)
	}
	if err := run(200, 1_500, 16, "", 4, "", "", 5*time.Second, true, 0); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsMismatchedSchema saves an estimator trained on a different
// schema (table "meadow") and verifies that loading it against the forest
// database fails at load time with a schema error, not deep inside
// estimation.
func TestRunRejectsMismatchedSchema(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 500)
	for i := range vals {
		vals[i] = rng.Int63n(100)
	}
	meadow := table.New("meadow")
	meadow.MustAddColumn(table.NewColumn("B1", vals))
	db := table.NewDB()
	db.MustAdd(meadow)

	set, err := workload.Conjunctive(meadow, workload.ConjConfig{Count: 120, MaxAttrs: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := estimator.NewLocal(db, estimator.LocalConfig{
		NewFeaturizer: func(m *core.TableMeta, o core.Options) core.Featurizer { return core.NewComplex(m, o) },
		Opts:          core.Options{MaxEntriesPerAttr: 8},
		NewRegressor:  estimator.NewGBFactory(gb.DefaultConfig()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := loc.Train(set); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/meadow.json"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loc.SaveJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	err = run(100, 1_000, 8, "", 1, "", path, 0, false, 0)
	if err == nil {
		t.Fatal("estimator trained on a different schema was accepted")
	}
	if !strings.Contains(err.Error(), "schema mismatch") {
		t.Errorf("error does not name the schema mismatch: %v", err)
	}
}
