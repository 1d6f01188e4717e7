package bench

import (
	"math"
	"math/rand"
	"testing"
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
