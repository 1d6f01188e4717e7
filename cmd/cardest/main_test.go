package main

import (
	"errors"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"qfe/internal/core"
	"qfe/internal/estimator"
	"qfe/internal/ml/gb"
	"qfe/internal/resilience"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/workload"
)

func TestRunWithSingleQuery(t *testing.T) {
	err := run(300, 2_000, 16,
		"SELECT count(*) FROM forest WHERE A1 >= 2500 AND A1 <= 3200", 1, "", "", false, 0)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunHeldOutEvaluation(t *testing.T) {
	if err := run(300, 2_000, 16, "", 2, "", "", false, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run(100, 1_000, 16, "not sql", 1, "", "", false, 0); err == nil {
		t.Error("unparseable query accepted")
	}
	// A grouped query asks for a group count; the row estimate of its WHERE
	// is not an answer to it. Refused with the flags, before a table is built:
	// Rows 0 would be the next error.
	err := run(100, 0, 16, "SELECT count(*) FROM forest WHERE A1 >= 3 GROUP BY A2", 1, "", "", false, 0)
	if err == nil || !strings.Contains(err.Error(), "group counts") {
		t.Errorf("GROUP BY query: err = %v, want a refusal naming group counts", err)
	}
}

func TestRunSaveAndLoad(t *testing.T) {
	path := t.TempDir() + "/model.json"
	if err := run(200, 1_500, 16, "", 3, path, "", false, 0); err != nil {
		t.Fatal(err)
	}
	if err := run(200, 1_500, 16,
		"SELECT count(*) FROM forest WHERE A1 >= 2500", 3, "", path, false, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithFallback(t *testing.T) {
	// The resilient chain must serve both the single-query and the
	// evaluation path.
	if err := run(200, 1_500, 16,
		"SELECT count(*) FROM forest WHERE A1 >= 2500", 4, "", "", true, 0); err != nil {
		t.Fatal(err)
	}
	if err := run(200, 1_500, 16, "", 4, "", "", true, 0); err != nil {
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

	err = run(100, 1_000, 8, "", 1, "", path, false, 0)
	if err == nil {
		t.Fatal("estimator trained on a different schema was accepted")
	}
	if !strings.Contains(err.Error(), "schema mismatch") {
		t.Errorf("error does not name the schema mismatch: %v", err)
	}
}

// scripted is a stage whose answer to each query the test chooses.
type scripted func(q *sqlparse.Query) (float64, error)

func (scripted) Name() string                                  { return "scripted" }
func (f scripted) Estimate(q *sqlparse.Query) (float64, error) { return f(q) }

// TestStageTallyReadsResults: the -fallback summary counts, per stage, what
// each answer's Result says — served by the stage that answered, refused or
// failed by each stage passed over — and a stage no query reached reads all
// zeros.
func TestStageTallyReadsResults(t *testing.T) {
	refused, failed, served := sqlparse.MustParse("SELECT count(*) FROM t WHERE a = 1"),
		sqlparse.MustParse("SELECT count(*) FROM t WHERE a = 2"),
		sqlparse.MustParse("SELECT count(*) FROM t WHERE a = 3")
	refuse := core.Unsupported(errors.New("not encoded"))
	learned := scripted(func(q *sqlparse.Query) (float64, error) {
		switch q {
		case refused:
			return 0, refuse
		case failed:
			return 0, errors.New("model broke")
		}
		return 9, nil
	})
	tally := newStageTally(resilience.NewResilient(resilience.Config{LastResort: resilience.RowCount{}},
		resilience.Stage{Name: "learned", Est: learned},
		resilience.Stage{Name: "independence", Est: scripted(func(*sqlparse.Query) (float64, error) { return 0, refuse })}))
	for _, q := range []*sqlparse.Query{refused, failed, served, served} {
		tally.estimate(q)
	}
	want := []stageCount{{"learned", 2, 1, 1}, {"independence", 0, 0, 2}}
	if !slices.Equal(tally.stages, want) {
		t.Errorf("tally %+v, want %+v", tally.stages, want)
	}
	empty := newStageTally(resilience.NewResilient(resilience.Config{}, resilience.Stage{Name: "learned", Est: learned}))
	empty.estimate(served)
	if want := []stageCount{{"learned", 1, 0, 0}, {"independence", 0, 0, 0}}; !slices.Equal(empty.stages, want) {
		t.Errorf("tally %+v, want %+v", empty.stages, want)
	}
}
