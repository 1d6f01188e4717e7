package gb

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

// randRegression builds a synthetic regression problem with enough feature
// interaction to force non-trivial trees.
func randRegression(rng *rand.Rand, n, d int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64() * 10
		}
		X[i] = row
		y[i] = row[0]*3 + row[1%d]*row[2%d]*0.25 + rng.NormFloat64()
	}
	return X, y
}

// predictReference evaluates the model through the serialization-format
// per-tree walk — the pre-flattening Predict, kept as the ground truth the
// compiled walk is held to (and timed against in BenchmarkPredictReference).
func (m *Model) predictReference(x []float64) float64 {
	if len(x) != m.Dim {
		panic(predictDimPanic(len(x), m.Dim))
	}
	out := m.Base
	for _, t := range m.Trees {
		out += m.Cfg.LearningRate * t.predict(x)
	}
	return out
}

// TestFlatPredictBitIdentical trains randomized forests across several
// configurations and demands the compiled flat walk reproduce the reference
// per-tree walk bit for bit, on in-distribution and far-out-of-distribution
// inputs alike.
func TestFlatPredictBitIdentical(t *testing.T) {
	cfgs := []Config{
		{NumTrees: 30, LearningRate: 0.2, MaxDepth: 5, MinSamplesLeaf: 2, MaxBins: 32, SubsampleRows: 0.8, SubsampleCols: 0.7, Seed: 1},
		{NumTrees: 7, LearningRate: 0.5, MaxDepth: 1, MinSamplesLeaf: 1, MaxBins: 8, SubsampleRows: 1, SubsampleCols: 1, Seed: 2},
		{NumTrees: 50, LearningRate: 0.07, MaxDepth: 9, MinSamplesLeaf: 5, MaxBins: 64, SubsampleRows: 0.6, SubsampleCols: 0.5, ExactSplits: true, Seed: 3},
	}
	for ci, cfg := range cfgs {
		rng := rand.New(rand.NewSource(int64(100 + ci)))
		X, y := randRegression(rng, 400, 6)
		m, err := Train(X, y, cfg)
		if err != nil {
			t.Fatalf("cfg %d: Train: %v", ci, err)
		}
		if m.flat == nil {
			t.Fatalf("cfg %d: trained model has no compiled forest", ci)
		}
		for trial := 0; trial < 2000; trial++ {
			x := make([]float64, 6)
			for j := range x {
				x[j] = rng.NormFloat64() * 50
			}
			got, want := m.Predict(x), m.predictReference(x)
			if got != want {
				t.Fatalf("cfg %d trial %d: flat %v != reference %v", ci, trial, got, want)
			}
		}
	}
}

// TestFlatSurvivesRoundTrip checks a JSON round-trip recompiles the fast
// path and preserves bit-identity — the path every loaded snapshot takes.
func TestFlatSurvivesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X, y := randRegression(rng, 200, 4)
	m, err := Train(X, y, Config{NumTrees: 20, LearningRate: 0.15, MaxDepth: 6, MinSamplesLeaf: 2, MaxBins: 32, SubsampleRows: 1, SubsampleCols: 1})
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
	if back.flat == nil {
		t.Fatal("decoded model has no compiled forest")
	}
	for trial := 0; trial < 500; trial++ {
		x := make([]float64, 4)
		for j := range x {
			x[j] = rng.NormFloat64() * 30
		}
		if got, want := back.Predict(x), m.Predict(x); got != want {
			t.Fatalf("trial %d: decoded %v != original %v", trial, got, want)
		}
	}
}

// handBuilt is a one-split model assembled without Train or a decoder.
func handBuilt(nodes ...node) *Model {
	return &Model{Cfg: Config{LearningRate: 0.5}, Base: 1, Dim: 1, Trees: []*tree{{Nodes: nodes}}}
}

// TestCompileHandBuilt: Validate compiles a model nothing has compiled yet,
// and the compiled form walks the tree it was given.
func TestCompileHandBuilt(t *testing.T) {
	m := handBuilt(
		node{Feature: 0, Threshold: 0, Left: 1, Right: 2},
		node{Leaf: true, Value: -2},
		node{Leaf: true, Value: 4},
	)
	if err := m.Validate(); err != nil {
		t.Fatalf("valid hand-built model: %v", err)
	}
	if got := m.Predict([]float64{-1}); got != 1+0.5*-2 {
		t.Errorf("left leaf: got %v", got)
	}
	if got := m.Predict([]float64{1}); got != 1+0.5*4 {
		t.Errorf("right leaf: got %v", got)
	}
	if got, want := m.MemoryBytes(), 3*flatNodeBytes+4+16; got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
}

// TestCompileRejectsUnfit: a forest the compiler cannot lay out is an error
// that names the tree, from compileForest and — for the one shape Validate's
// per-node checks accept, two parents claiming one child with child ids in
// range and ascending — from Validate too. There is no other interpreter to
// hand such a forest to.
func TestCompileRejectsUnfit(t *testing.T) {
	for name, trees := range map[string][]*tree{
		"nil trees":  nil,
		"nil tree":   {nil},
		"empty tree": {{}},
	} {
		if f, err := compileForest(trees); err == nil || f != nil {
			t.Errorf("%s compiled (err %v)", name, err)
		}
	}
	shared := handBuilt(
		node{Feature: 0, Threshold: 0, Left: 1, Right: 2},
		node{Feature: 0, Threshold: -5, Left: 3, Right: 4},
		node{Feature: 0, Threshold: 5, Left: 4, Right: 5},
		node{Leaf: true, Value: 1},
		node{Leaf: true, Value: 2},
		node{Leaf: true, Value: 3},
	)
	shared.Trees = append([]*tree{{Nodes: []node{{Leaf: true, Value: 7}}}}, shared.Trees...)
	err := shared.Validate()
	if err == nil || !strings.Contains(err.Error(), "tree 1 node 2") {
		t.Fatalf("Validate on a shared child = %v, want an error naming tree 1 node 2", err)
	}
	data, jerr := json.Marshal(shared)
	if jerr != nil {
		t.Fatal(jerr)
	}
	var back Model
	if jerr := json.Unmarshal(data, &back); jerr != nil {
		t.Fatalf("decode must leave the verdict to Validate, got %v", jerr)
	}
	if got := back.Validate(); got == nil || got.Error() != err.Error() {
		t.Errorf("decoded model: Validate = %v, want %v", got, err)
	}
}

// TestPredictZeroAllocs pins the steady-state allocation count of the
// compiled walk at zero.
func TestPredictZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	X, y := randRegression(rng, 300, 5)
	m, err := Train(X, y, Config{NumTrees: 40, LearningRate: 0.1, MaxDepth: 7, MinSamplesLeaf: 2, MaxBins: 32, SubsampleRows: 0.9, SubsampleCols: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	x := X[0]
	if allocs := testing.AllocsPerRun(200, func() {
		m.Predict(x)
	}); allocs != 0 {
		t.Errorf("Predict allocs/op = %v, want 0", allocs)
	}
}
