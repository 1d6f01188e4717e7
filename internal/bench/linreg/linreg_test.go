package linreg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRecoversLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trueW := []float64{2, -3, 0.5}
	const bias = 1.25
	n := 500
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		X[i] = row
		y[i] = bias
		for j := range row {
			y[i] += trueW[j] * row[j]
		}
	}
	m, err := Train(X, y, Config{Lambda: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	for j := range trueW {
		if math.Abs(m.W[j]-trueW[j]) > 1e-6 {
			t.Errorf("W[%d] = %v, want %v", j, m.W[j], trueW[j])
		}
	}
	if math.Abs(m.Bias-bias) > 1e-6 {
		t.Errorf("Bias = %v, want %v", m.Bias, bias)
	}
}

func TestRidgeShrinksCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.Float64()
		X[i] = []float64{v}
		y[i] = 5 * v
	}
	weak, err := Train(X, y, Config{Lambda: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	strong, err := Train(X, y, Config{Lambda: 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(strong.W[0]) >= math.Abs(weak.W[0]) {
		t.Errorf("ridge did not shrink: weak %v, strong %v", weak.W[0], strong.W[0])
	}
}

func TestDegenerateFeatures(t *testing.T) {
	// Perfectly collinear features would break OLS; the ridge keeps the
	// system solvable.
	X := [][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	y := []float64{2, 4, 6, 8}
	m, err := Train(X, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{5, 5}); math.Abs(p-10) > 0.5 {
		t.Errorf("collinear prediction %v, want ~10", p)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Train(nil, nil, DefaultConfig()); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, DefaultConfig()); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Train([][]float64{{1, 2}, {3}}, []float64{1, 2}, DefaultConfig()); err == nil {
		t.Error("ragged features accepted")
	}
	if _, err := Train([][]float64{{1}}, []float64{1}, Config{Lambda: 0}); err == nil {
		t.Error("zero lambda accepted")
	}
	if _, err := Train([][]float64{{}}, []float64{1}, DefaultConfig()); err == nil {
		t.Error("zero-dim features accepted")
	}
}

func TestPredictDimPanic(t *testing.T) {
	m, err := Train([][]float64{{1, 2}, {2, 1}}, []float64{1, 2}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input dim")
		}
	}()
	m.Predict([]float64{1})
}

func TestMemoryBytes(t *testing.T) {
	m, err := Train([][]float64{{1, 2, 3}, {3, 2, 1}}, []float64{1, 2}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.MemoryBytes() != 4*8 {
		t.Errorf("MemoryBytes = %d, want 32", m.MemoryBytes())
	}
}

// TestCholeskyAgainstBruteForce checks the solver on random SPD systems.
func TestCholeskyAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(5)
		// Build SPD A = M Mᵀ + I and a random solution w.
		M := make([]float64, k*k)
		for i := range M {
			M[i] = rng.NormFloat64()
		}
		A := make([]float64, k*k)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				var s float64
				for p := 0; p < k; p++ {
					s += M[i*k+p] * M[j*k+p]
				}
				A[i*k+j] = s
				if i == j {
					A[i*k+j] += 1
				}
			}
		}
		want := make([]float64, k)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, k)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				b[i] += A[i*k+j] * want[j]
			}
		}
		got, err := solveCholesky(A, b, k)
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
