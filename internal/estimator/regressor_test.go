package estimator

import (
	"math"
	"math/rand"
	"testing"

	"qfe/internal/ml/gb"
)

func regressionProblem(n int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(3))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := []float64{rng.Float64(), rng.Float64()}
		X[i] = row
		y[i] = 2*row[0] + row[1]
	}
	return X, y
}

func TestRegressorAdapters(t *testing.T) {
	X, y := regressionProblem(400)
	cfg := gb.DefaultConfig()
	cfg.NumTrees = 30
	r := NewGBFactory(cfg)()
	if r.Name() != "GB" {
		t.Errorf("Name = %q, want GB", r.Name())
	}
	if r.MemoryBytes() != 0 {
		t.Errorf("untrained MemoryBytes = %d, want 0", r.MemoryBytes())
	}
	if err := r.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if r.MemoryBytes() <= 0 {
		t.Error("trained MemoryBytes not positive")
	}
	var worst float64
	for i := 0; i < 50; i++ {
		if e := math.Abs(r.Predict(X[i]) - y[i]); e > worst {
			worst = e
		}
	}
	if worst > 0.2 {
		t.Errorf("worst error %v, want <= 0.2", worst)
	}
}

func TestRegressorPredictBeforeFitPanics(t *testing.T) {
	r := NewGBFactory(gb.DefaultConfig())()
	defer func() {
		if recover() == nil {
			t.Error("Predict before Fit did not panic")
		}
	}()
	r.Predict([]float64{1})
}

func TestFactoriesProduceFreshInstances(t *testing.T) {
	// Local-model training relies on every factory call giving an
	// independent model.
	f := NewGBFactory(gb.DefaultConfig())
	a, b := f(), f()
	if a == b {
		t.Fatal("factory returned the same instance twice")
	}
	X, y := regressionProblem(50)
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if b.MemoryBytes() != 0 {
		t.Error("fitting one instance affected the other")
	}
}
