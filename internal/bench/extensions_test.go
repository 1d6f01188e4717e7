package bench

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qfe/internal/sqlparse"
	"qfe/internal/workload"
)

// TestLinRegRegressor holds ext1's adapter to what estimator.Local asks of a
// Regressor: fresh instances per factory call, the paper's abbreviation, a
// panic on use before Fit, and a fit that recovers a linear function.
func TestLinRegRegressor(t *testing.T) {
	factory, err := smokeEnv().regressorFactory("LR")
	if err != nil {
		t.Fatal(err)
	}
	r := factory()
	if other := factory(); r == other {
		t.Fatal("factory returned the same instance twice")
	}
	if r.Name() != "LR" {
		t.Errorf("Name = %q, want LR", r.Name())
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
		if e := math.Abs(r.Predict(X[i]) - y[i]); e > 0.05 {
			t.Fatalf("row %d: error %v, want <= 0.05", i, e)
		}
	}
	if _, err := smokeEnv().regressorFactory("svm"); err == nil {
		t.Error("unknown model accepted")
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
