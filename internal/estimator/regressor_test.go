package estimator

import (
	"math"
	"math/rand"
	"testing"

	"qfe/internal/ml/gb"
	"qfe/internal/ml/nn"
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
	gbCfg := gb.DefaultConfig()
	gbCfg.NumTrees = 30
	nnCfg := nn.DefaultConfig()
	nnCfg.Epochs = 20

	factories := []struct {
		name    string
		factory RegressorFactory
		maxErr  float64
	}{
		{"GB", NewGBFactory(gbCfg), 0.2},
		{"NN", NewNNFactory(nnCfg), 0.2},
	}
	for _, f := range factories {
		r := f.factory()
		if r.Name() != f.name {
			t.Errorf("factory %s produced Name %q", f.name, r.Name())
		}
		if r.MemoryBytes() != 0 {
			t.Errorf("%s: untrained MemoryBytes = %d, want 0", f.name, r.MemoryBytes())
		}
		if err := r.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if r.MemoryBytes() <= 0 {
			t.Errorf("%s: trained MemoryBytes not positive", f.name)
		}
		var worst float64
		for i := 0; i < 50; i++ {
			if e := math.Abs(r.Predict(X[i]) - y[i]); e > worst {
				worst = e
			}
		}
		if worst > f.maxErr {
			t.Errorf("%s: worst error %v, want <= %v", f.name, worst, f.maxErr)
		}
	}
}

func TestRegressorPredictBeforeFitPanics(t *testing.T) {
	for _, factory := range []RegressorFactory{
		NewGBFactory(gb.DefaultConfig()),
		NewNNFactory(nn.DefaultConfig()),
	} {
		r := factory()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Predict before Fit did not panic", r.Name())
				}
			}()
			r.Predict([]float64{1})
		}()
	}
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
