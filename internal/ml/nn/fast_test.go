package nn

import (
	"encoding/json"
	"math/rand"
	"testing"

	"qfe/internal/ml/mlmath"
	"qfe/internal/testutil"
)

func trainSmallNet(t *testing.T, seed int64, hidden []int) (*Model, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, 200)
	y := make([]float64, 200)
	for i := range X {
		row := make([]float64, 6)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		y[i] = row[0]*2 - row[3] + 0.1*rng.NormFloat64()
	}
	cfg := Config{Hidden: hidden, LearningRate: 1e-3, Epochs: 5, BatchSize: 32, ValFraction: 0.1, Patience: 3, Seed: seed}
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, X
}

// predictReference is the pre-pooling Predict — one fresh activation slice
// per layer — kept as the ground truth the pooled forward is held to.
func (m *Model) predictReference(x []float64) float64 {
	if len(x) != m.dim {
		panic(predictDimPanic(len(x), m.dim))
	}
	act := x
	for li, l := range m.layers {
		act = l.Forward(act)
		if li < len(m.layers)-1 {
			mlmath.ReLU(act)
		}
	}
	return act[0]
}

// TestPooledPredictBitIdentical: the pooled ping-pong path must reproduce
// the allocating reference bit for bit, across layer shapes (including a
// network whose widest layer is an inner one).
func TestPooledPredictBitIdentical(t *testing.T) {
	for _, hidden := range [][]int{{8}, {16, 8}, {4, 32, 4}} {
		m, _ := trainSmallNet(t, 21, hidden)
		rng := rand.New(rand.NewSource(22))
		for trial := 0; trial < 1000; trial++ {
			x := make([]float64, 6)
			for j := range x {
				x[j] = rng.NormFloat64()
			}
			if got, want := m.Predict(x), m.predictReference(x); got != want {
				t.Fatalf("hidden %v trial %d: pooled %v != reference %v", hidden, trial, got, want)
			}
		}
	}
}

// TestPooledPredictSurvivesRoundTrip: decoding a persisted network must
// rebuild the fast path.
func TestPooledPredictSurvivesRoundTrip(t *testing.T) {
	m, X := trainSmallNet(t, 31, []int{16, 8})
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, x := range X[:50] {
		if back.Predict(x) != m.Predict(x) {
			t.Fatal("round-tripped prediction differs")
		}
	}
}

// TestPredictZeroAllocs pins the pooled path's steady-state allocations.
func TestPredictZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation defeats sync.Pool; allocation counts are only meaningful in normal builds")
	}
	m, X := trainSmallNet(t, 41, []int{16, 8})
	x := X[0]
	if allocs := testing.AllocsPerRun(200, func() {
		m.Predict(x)
	}); allocs != 0 {
		t.Errorf("Predict allocs/op = %v, want 0", allocs)
	}
}
