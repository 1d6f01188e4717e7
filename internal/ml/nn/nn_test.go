package nn

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func makeData(rng *rand.Rand, n int, f func([]float64) float64) (X [][]float64, y []float64) {
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := 0; i < n; i++ {
		row := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		X[i] = row
		y[i] = f(row)
	}
	return X, y
}

func mse(m *Model, X [][]float64, y []float64) float64 {
	var s float64
	for i := range X {
		diff := m.Predict(X[i]) - y[i]
		s += diff * diff
	}
	return s / float64(len(X))
}

func TestLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(x []float64) float64 { return 2*x[0] - x[1] + 0.5*x[2] + 0.3 }
	X, y := makeData(rng, 2000, f)
	cfg := DefaultConfig()
	cfg.Seed = 1
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	Xt, yt := makeData(rng, 400, f)
	if got := mse(m, Xt, yt); got > 0.01 {
		t.Errorf("linear test MSE = %v, want < 0.01", got)
	}
}

func TestLearnsNonlinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(x []float64) float64 {
		v := x[0] * x[1]
		if x[2] > 0.5 {
			v += 1
		}
		return v
	}
	X, y := makeData(rng, 4000, f)
	cfg := DefaultConfig()
	cfg.Seed = 2
	cfg.Epochs = 60
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	Xt, yt := makeData(rng, 400, f)
	if got := mse(m, Xt, yt); got > 0.05 {
		t.Errorf("nonlinear test MSE = %v, want < 0.05", got)
	}
}

func TestDeterminismUnderSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := makeData(rng, 300, func(x []float64) float64 { return x[0] })
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Epochs = 5
	m1, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if m1.Predict(X[i]) != m2.Predict(X[i]) {
			t.Fatal("same seed must give identical models")
		}
	}
}

func TestEarlyStoppingKeepsBestWeights(t *testing.T) {
	// Train far too long on tiny data: early stopping must engage and the
	// returned model must be finite and sane.
	rng := rand.New(rand.NewSource(4))
	X, y := makeData(rng, 120, func(x []float64) float64 { return x[0] + x[1] })
	cfg := DefaultConfig()
	cfg.Seed = 4
	cfg.Epochs = 500
	cfg.Patience = 3
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if p := m.Predict(X[i]); math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("prediction %v not finite", p)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	X := [][]float64{{1}}
	y := []float64{1}
	bad := []Config{
		{Hidden: nil, LearningRate: 0.1, Epochs: 1, BatchSize: 1},
		{Hidden: []int{4}, LearningRate: 0, Epochs: 1, BatchSize: 1},
		{Hidden: []int{4}, LearningRate: 0.1, Epochs: 0, BatchSize: 1},
		{Hidden: []int{4}, LearningRate: 0.1, Epochs: 1, BatchSize: 0},
		{Hidden: []int{0}, LearningRate: 0.1, Epochs: 1, BatchSize: 1},
		{Hidden: []int{4}, LearningRate: 0.1, Epochs: 1, BatchSize: 1, ValFraction: 1},
	}
	for i, cfg := range bad {
		if _, err := Train(X, y, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	good := Config{Hidden: []int{4}, LearningRate: 0.1, Epochs: 1, BatchSize: 1}
	if _, err := Train(nil, nil, good); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := Train([][]float64{{1}, {2}}, []float64{1}, good); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Train([][]float64{{1, 2}, {3}}, []float64{1, 2}, good); err == nil {
		t.Error("ragged features accepted")
	}
	if _, err := Train([][]float64{{}}, []float64{1}, good); err == nil {
		t.Error("zero-dim features accepted")
	}
}

func TestPredictDimPanic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epochs = 1
	cfg.Patience = 0
	cfg.ValFraction = 0
	m, err := Train([][]float64{{1, 2}, {2, 1}}, []float64{1, 2}, cfg)
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

func TestNumParamsAndMemory(t *testing.T) {
	cfg := Config{Hidden: []int{8, 4}, LearningRate: 0.01, Epochs: 1, BatchSize: 4}
	m, err := Train([][]float64{{1, 2, 3}, {4, 5, 6}}, []float64{1, 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// (3*8 + 8) + (8*4 + 4) + (4*1 + 1) = 32 + 36 + 5 = 73.
	if got := m.NumParams(); got != 73 {
		t.Errorf("NumParams = %d, want 73", got)
	}
	if m.MemoryBytes() != 73*8 {
		t.Errorf("MemoryBytes = %d, want %d", m.MemoryBytes(), 73*8)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	X, y := makeData(rng, 200, func(x []float64) float64 { return x[0] + 2*x[1] })
	cfg := DefaultConfig()
	cfg.Epochs = 5
	cfg.Seed = 9
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if got, want := back.Predict(X[i]), m.Predict(X[i]); got != want {
			t.Fatalf("restored model predicts %v, original %v", got, want)
		}
	}
	if back.NumParams() != m.NumParams() {
		t.Errorf("param count changed: %d vs %d", back.NumParams(), m.NumParams())
	}
}

func TestPersistRejectsCorrupt(t *testing.T) {
	cases := []string{
		`not json`,
		`{"cfg":{},"dim":3,"layers":[]}`, // no layers
		`{"cfg":{},"dim":3,"layers":[{"in":2,"out":1,"w":[1,2],"b":[0]}]}`,                                            // dim mismatch
		`{"cfg":{},"dim":2,"layers":[{"in":2,"out":2,"w":[1,2,3,4],"b":[0,0]}]}`,                                      // final width != 1
		`{"cfg":{},"dim":2,"layers":[{"in":2,"out":1,"w":[1],"b":[0]}]}`,                                              // wrong weight count
		`{"cfg":{},"dim":2,"layers":[{"in":2,"out":2,"w":[1,2,3,4],"b":[0,0]},{"in":3,"out":1,"w":[1,2,3],"b":[0]}]}`, // broken chain
	}
	for i, src := range cases {
		var m Model
		if err := json.Unmarshal([]byte(src), &m); err == nil {
			t.Errorf("case %d: corrupt model accepted", i)
		}
	}
}
