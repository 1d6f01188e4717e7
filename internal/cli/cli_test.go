package cli

import (
	"context"
	"strings"
	"testing"
	"time"

	"qfe/internal/exec"
	"qfe/internal/resilience"
	"qfe/internal/sqlparse"
)

func TestValidateWorkers(t *testing.T) {
	for _, n := range []int{0, 1, 8, 1024} {
		if err := ValidateWorkers(n); err != nil {
			t.Errorf("ValidateWorkers(%d) = %v, want nil", n, err)
		}
	}
	for _, n := range []int{-1, -4, -100} {
		err := ValidateWorkers(n)
		if err == nil {
			t.Errorf("ValidateWorkers(%d) accepted", n)
			continue
		}
		if !strings.Contains(err.Error(), "-workers") {
			t.Errorf("ValidateWorkers(%d) error %q does not name the flag", n, err)
		}
	}
}

func TestValidateModel(t *testing.T) {
	for _, name := range []string{"GB", "NN", "gb", "nn"} {
		if err := ValidateModel(name); err != nil {
			t.Errorf("ValidateModel(%q) = %v, want nil", name, err)
		}
	}
	for _, name := range []string{"LR", "SVM", ""} {
		err := ValidateModel(name)
		if err == nil || !strings.Contains(err.Error(), "-model") || !strings.Contains(err.Error(), "GB or NN") {
			t.Errorf("ValidateModel(%q) = %v, want an error naming the flag, GB and NN", name, err)
		}
	}
}

func TestForestSpecValidate(t *testing.T) {
	good := ForestSpec{Rows: 100, TrainN: 10, TestN: 5, Seed: 1, QFT: "conjunctive"}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []ForestSpec{
		{Rows: 0, TrainN: 10},
		{Rows: 100, TrainN: 0},
		{Rows: 100, TrainN: 10, TestN: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func TestBuildForestEnv(t *testing.T) {
	env, err := BuildForestEnv(ForestSpec{Rows: 300, TrainN: 25, TestN: 5, Seed: 2, QFT: "conjunctive"})
	if err != nil {
		t.Fatal(err)
	}
	if env.DB == nil || env.Table == nil {
		t.Fatal("environment missing database or table")
	}
	if env.DB.Table(env.Table.Name) == nil {
		t.Errorf("table %q not registered in the database", env.Table.Name)
	}
	if len(env.Train) != 25 || len(env.Test) != 5 {
		t.Errorf("split = %d/%d, want 25/5", len(env.Train), len(env.Test))
	}

	if _, err := BuildForestEnv(ForestSpec{Rows: 0, TrainN: 10}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestBuildForestEnvComplexQFT(t *testing.T) {
	env, err := BuildForestEnv(ForestSpec{Rows: 300, TrainN: 20, TestN: 0, Seed: 2, QFT: "complex"})
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Train) != 20 || len(env.Test) != 0 {
		t.Errorf("split = %d/%d, want 20/0", len(env.Train), len(env.Test))
	}
}

func TestNewLocalEstimator(t *testing.T) {
	env, err := BuildForestEnv(ForestSpec{Rows: 300, TrainN: 10, Seed: 2, QFT: "conjunctive"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLocalEstimator(env.DB, TrainSpec{QFT: "conjunctive", Model: "SVM", Entries: 8}); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := NewLocalEstimator(env.DB, TrainSpec{QFT: "conjunctive", Model: "GB", Entries: 8, Workers: -2}); err == nil {
		t.Error("negative workers accepted")
	}
	loc, err := NewLocalEstimator(env.DB, TrainSpec{QFT: "conjunctive", Model: "GB", Entries: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := loc.Train(env.Train); err != nil {
		t.Fatalf("training the built estimator: %v", err)
	}
}

// TestChain: the one serving chain is learned → independence, with the
// row-count heuristic last. A query the learned model does not encode (an OR
// under conjunctive) is independence's, one neither encodes (an OR across
// attributes) the heuristic's, and neither refusal is a stage failure.
func TestChain(t *testing.T) {
	env, err := BuildForestEnv(ForestSpec{Rows: 500, TrainN: 100, Seed: 2, QFT: "conjunctive"})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := NewLocalEstimator(env.DB, TrainSpec{QFT: "conjunctive", Model: "GB", Entries: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := loc.Train(env.Train); err != nil {
		t.Fatal(err)
	}
	chain := Chain(env.DB, loc, time.Second)
	for _, tc := range []struct{ where, stage string }{
		{"A1 >= 2500 AND A2 <= 200", "learned"},
		{"A1 <= 2000 OR A1 >= 3000", "independence"},
		{"A1 >= 3 OR A2 <= 7", "row-count heuristic"},
	} {
		q := sqlparse.MustParse("SELECT count(*) FROM forest WHERE " + tc.where)
		if err := exec.Bind(q, env.DB); err != nil {
			t.Fatal(err)
		}
		if res := chain.EstimateDetailed(context.Background(), q); res.Stage != tc.stage || res.Estimate < 1 {
			t.Errorf("%s: %+v, want an estimate from %s", tc.where, res, tc.stage)
		}
	}
	var names []string
	for _, st := range chain.Stats() {
		names = append(names, st.Name)
		if st.State != resilience.StateClosed || st.Failed != 0 {
			t.Errorf("stage %s: %+v, want closed with no failures", st.Name, st)
		}
	}
	if got := strings.Join(names, " → "); got != "learned → independence" {
		t.Errorf("stages %s, want learned → independence", got)
	}
}
