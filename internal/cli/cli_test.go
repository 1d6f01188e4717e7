package cli

import (
	"context"
	"errors"
	"strings"
	"testing"

	"qfe/internal/core"
	"qfe/internal/estimator"
	"qfe/internal/exec"
	"qfe/internal/ml/gb"
	"qfe/internal/resilience"
	"qfe/internal/sqlparse"
	"qfe/internal/workload"
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
	for _, name := range []string{"GB", "gb"} {
		if err := ValidateModel(name); err != nil {
			t.Errorf("ValidateModel(%q) = %v, want nil", name, err)
		}
	}
	// NN is the harness's: the binaries build and serve GB alone.
	for _, name := range []string{"NN", "nn", "LR", "SVM", ""} {
		err := ValidateModel(name)
		if err == nil || !strings.Contains(err.Error(), "-model") || !strings.Contains(err.Error(), "want GB)") {
			t.Errorf("ValidateModel(%q) = %v, want an error naming the flag and GB", name, err)
		}
	}
}

// TestValidateQFT: complex is the one QFT the binaries build; the paper's
// baselines and Universal Conjunction Encoding are the harness's.
func TestValidateQFT(t *testing.T) {
	if err := ValidateQFT("complex"); err != nil {
		t.Errorf("ValidateQFT(complex) = %v, want nil", err)
	}
	for _, name := range []string{"simple", "range", "conjunctive", "Complex", ""} {
		err := ValidateQFT(name)
		if err == nil || !strings.Contains(err.Error(), "-qft") || !strings.Contains(err.Error(), "want complex)") {
			t.Errorf("ValidateQFT(%q) = %v, want an error naming the flag and complex", name, err)
		}
	}
}

func TestForestSpecValidate(t *testing.T) {
	for _, qft := range []string{"", "complex"} {
		good := ForestSpec{Rows: 100, TrainN: 10, TestN: 5, Seed: 1, QFT: qft}
		if err := good.Validate(); err != nil {
			t.Fatalf("valid spec rejected: %v", err)
		}
	}
	bad := []ForestSpec{
		{Rows: 0, TrainN: 10},
		{Rows: 100, TrainN: 0},
		{Rows: 100, TrainN: 10, TestN: -1},
		{Rows: 100, TrainN: 10, QFT: "conjunctive"},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func TestBuildForestEnv(t *testing.T) {
	env, err := BuildForestEnv(ForestSpec{Rows: 300, TrainN: 25, TestN: 5, Seed: 2})
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

// TestBuildForestEnvComplexQFT: the environment's workload is the mixed one
// complex is trained on, and a spec naming another QFT is refused.
func TestBuildForestEnvComplexQFT(t *testing.T) {
	env, err := BuildForestEnv(ForestSpec{Rows: 300, TrainN: 20, TestN: 0, Seed: 2, QFT: "complex"})
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Train) != 20 || len(env.Test) != 0 {
		t.Errorf("split = %d/%d, want 20/0", len(env.Train), len(env.Test))
	}
	ors := 0
	for _, q := range env.Train.Queries() {
		if !sqlparse.IsConjunctive(q.Where) {
			ors++
		}
	}
	if ors == 0 {
		t.Error("no training query has an OR: the workload is not the mixed one")
	}
	if _, err := BuildForestEnv(ForestSpec{Rows: 300, TrainN: 20, Seed: 2, QFT: "conjunctive"}); err == nil {
		t.Error("a conjunctive environment was built")
	}
}

func TestNewLocalEstimator(t *testing.T) {
	env, err := BuildForestEnv(ForestSpec{Rows: 300, TrainN: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"SVM", "NN"} {
		if _, err := NewLocalEstimator(env.DB, TrainSpec{Model: model, Entries: 8}); err == nil {
			t.Errorf("model %q accepted", model)
		}
	}
	for _, qft := range []string{"simple", "range", "conjunctive"} {
		if _, err := NewLocalEstimator(env.DB, TrainSpec{QFT: qft, Entries: 8}); err == nil {
			t.Errorf("QFT %q accepted", qft)
		}
	}
	if _, err := NewLocalEstimator(env.DB, TrainSpec{Entries: 8, Workers: -2}); err == nil {
		t.Error("negative workers accepted")
	}
	loc, err := NewLocalEstimator(env.DB, TrainSpec{QFT: "complex", Model: "GB", Entries: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loc.Name(), "GB + complex (local)"; got != want {
		t.Errorf("Name() = %q, want %q", got, want)
	}
	if err := loc.Train(env.Train); err != nil {
		t.Fatalf("training the built estimator: %v", err)
	}
}

// TestChain: the one serving chain is learned → independence, with the
// row-count heuristic last. A query the learned model does not encode (an OR
// under a conjunctive snapshot, which still loads) is independence's, one
// neither encodes (an OR across attributes) the heuristic's, and neither
// refusal is a stage failure.
func TestChain(t *testing.T) {
	env, err := BuildForestEnv(ForestSpec{Rows: 500, TrainN: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	train, err := workload.Conjunctive(env.Table, workload.ConjConfig{Count: 100, MaxAttrs: 8, MaxNotEquals: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := estimator.NewLocal(env.DB, estimator.LocalConfig{
		NewFeaturizer: func(m *core.TableMeta, o core.Options) core.Featurizer { return core.NewConjunctive(m, o) },
		Opts:          core.Options{MaxEntriesPerAttr: 8, AttrSel: true},
		NewRegressor:  estimator.NewGBFactory(gb.DefaultConfig()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := loc.Train(train); err != nil {
		t.Fatal(err)
	}
	chain := Chain(env.DB, loc)
	for _, tc := range []struct{ where, stage string }{
		{"A1 >= 2500 AND A2 <= 200", "learned"},
		{"A1 <= 2000 OR A1 >= 3000", "independence"},
		{"A1 >= 3 OR A2 <= 7", "row-count heuristic"},
	} {
		q := sqlparse.MustParse("SELECT count(*) FROM forest WHERE " + tc.where)
		if err := exec.Bind(q, env.DB); err != nil {
			t.Fatal(err)
		}
		res := chain.EstimateDetailed(context.Background(), q)
		if res.Stage != tc.stage || res.Estimate < 1 {
			t.Errorf("%s: %+v, want an estimate from %s", tc.where, res, tc.stage)
		}
		var passed []string
		for _, se := range res.Errors {
			passed = append(passed, se.Stage)
			if !errors.Is(se.Err, core.ErrUnsupported) {
				t.Errorf("%s: stage %s failed (%v), want a refusal", tc.where, se.Stage, se.Err)
			}
		}
		if tc.stage == "row-count heuristic" {
			if got := strings.Join(passed, " → "); got != "learned → independence" {
				t.Errorf("stages %s, want learned → independence", got)
			}
		}
	}
}

// lapsingCtx reads alive at its first Err and spent from the second: a
// request whose deadline lapses just after the chain has checked it.
type lapsingCtx struct {
	context.Context
	reads int
}

func (c *lapsingCtx) Err() error {
	if c.reads++; c.reads == 1 {
		return nil
	}
	return context.DeadlineExceeded
}

// TestLapsedDeadlineIsNotAModelFailure: the chain alone reads a request's
// deadline, so a request it admitted to the learned stage is that stage's to
// answer, however late, and is never a failure of the model: five requests
// whose deadline lapses just after the chain's check are each the learned
// stage's answer, and so is the next request, with time to spare.
func TestLapsedDeadlineIsNotAModelFailure(t *testing.T) {
	env, err := BuildForestEnv(ForestSpec{Rows: 500, TrainN: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParse("SELECT count(*) FROM forest WHERE A1 >= 2500")
	if err := exec.Bind(q, env.DB); err != nil {
		t.Fatal(err)
	}
	chain := Chain(env.DB, resilience.Constant{Value: 42})
	for i := 0; i < 5; i++ {
		if res := chain.EstimateDetailed(&lapsingCtx{Context: context.Background()}, q); res.Stage != "learned" || res.Estimate != 42 {
			t.Errorf("lapsing request %d: %+v, want learned's 42", i+1, res)
		}
	}
	if res := chain.EstimateDetailed(context.Background(), q); res.Stage != "learned" || res.Degraded {
		t.Errorf("a request with time to spare after five lapsed ones: %+v, want learned, not degraded", res)
	}
}
