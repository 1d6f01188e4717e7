package bench

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qfe/internal/bench/nn"
	"qfe/internal/bench/qft"
	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// TestLinRegRegressor holds ext1's adapter to what estimator.Local asks of a
// Regressor (checkRegressor) and to a fit within 0.05 of a linear function.
func TestLinRegRegressor(t *testing.T) {
	factory, err := smokeEnv().regressorFactory("LR")
	if err != nil {
		t.Fatal(err)
	}
	checkRegressor(t, factory, "LR", 0.05)
	if _, err := smokeEnv().regressorFactory("svm"); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestNNRegressor holds the network's adapter to the same, within 0.2.
func TestNNRegressor(t *testing.T) {
	cfg := nn.DefaultConfig()
	cfg.Epochs = 20
	checkRegressor(t, NewNNFactory(cfg), "NN", 0.2)
}

// checkRegressor holds a factory to what estimator.Local asks of a
// Regressor: fresh instances per call, the paper's abbreviation, no size
// before Fit and a panic on use before it, and a fit that recovers
// y = 2·x0 + x1 within maxErr on every one of 50 training rows.
func checkRegressor(t *testing.T, factory estimator.RegressorFactory, name string, maxErr float64) {
	t.Helper()
	r := factory()
	if other := factory(); r == other {
		t.Fatal("factory returned the same instance twice")
	}
	if r.Name() != name {
		t.Errorf("Name = %q, want %s", r.Name(), name)
	}
	if r.MemoryBytes() != 0 {
		t.Errorf("untrained MemoryBytes = %d, want 0", r.MemoryBytes())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Predict before Fit did not panic")
			}
		}()
		r.Predict([]float64{1, 1})
	}()

	rng := rand.New(rand.NewSource(3))
	X := make([][]float64, 400)
	y := make([]float64, len(X))
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = 2*X[i][0] + X[i][1]
	}
	if err := r.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if r.MemoryBytes() <= 0 {
		t.Error("trained MemoryBytes not positive")
	}
	for i := 0; i < 50; i++ {
		if e := math.Abs(r.Predict(X[i]) - y[i]); e > maxErr {
			t.Fatalf("row %d: error %v, want <= %v", i, e, maxErr)
		}
	}
}

// TestLocalNN: the network behind the conjunctive QFT, as a local model over
// a small forest, estimates its held-out conjunctive queries at a median
// q-error under 10.
func TestLocalNN(t *testing.T) {
	tbl, err := dataset.Forest(dataset.ForestConfig{Rows: 4000, QuantAttrs: 5, BinaryAttrs: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	db := table.NewDB()
	db.MustAdd(tbl)
	set, err := workload.Conjunctive(tbl, workload.ConjConfig{Count: 2500, MaxAttrs: 5, MaxNotEquals: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	train, test := set.Split(2000)
	cfg := nn.DefaultConfig()
	cfg.Hidden = []int{32, 16}
	cfg.Epochs = 25
	cfg.Seed = 1
	loc, err := estimator.NewLocal(db, estimator.LocalConfig{
		NewFeaturizer: qft.Factory("conjunctive"),
		Opts:          core.Options{MaxEntriesPerAttr: 16, AttrSel: true},
		NewRegressor:  NewNNFactory(cfg),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := loc.Train(train); err != nil {
		t.Fatal(err)
	}
	s, err := estimator.Summarize(loc, test)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("NN+conj: %v", s)
	if s.Median > 10 {
		t.Errorf("NN+conj median %v, want < 10", s.Median)
	}
}

// TestHealSet holds ext10's training set to its description: the boot set
// whole, then the feedback pairs in order, each featurization class once
// (a respelling of a boot query or of an earlier pair adds nothing), at most
// healCap of them.
func TestHealSet(t *testing.T) {
	q := func(sql string) workload.Labeled { return workload.Labeled{Query: sqlparse.MustParse(sql), Card: 1} }
	boot := workload.Set{q("SELECT count(*) FROM t WHERE a >= 1")}
	feedback := workload.Set{
		q("SELECT count(*) FROM t WHERE a > 0"), // boot's class
		q("SELECT count(*) FROM t WHERE b = 2 AND c < 3"),
		q("SELECT count(*) FROM t WHERE c < 3 AND b = 2"), // the pair before, reordered
		q("SELECT count(*) FROM t WHERE d = 4"),
	}
	set := healSet(boot, feedback)
	if len(set) != 3 || set[0].Query != boot[0].Query || set[1].Query != feedback[1].Query || set[2].Query != feedback[3].Query {
		t.Fatalf("healSet = %v, want the boot query, then feedback pairs 1 and 3", set.Queries())
	}
	many := make(workload.Set, healCap+5)
	for i := range many {
		many[i] = q(fmt.Sprintf("SELECT count(*) FROM t WHERE a = %d", i+10))
	}
	if got := len(healSet(boot, many)) - len(boot); got != healCap {
		t.Errorf("healSet kept %d feedback pairs of %d, want the cap %d", got, len(many), healCap)
	}
}
