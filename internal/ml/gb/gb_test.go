package gb

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// makeRegression builds a noiseless synthetic regression problem with
// piecewise and interaction structure that trees capture well.
func makeRegression(rng *rand.Rand, n, d int) (X [][]float64, y []float64) {
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		target := 3 * row[0]
		if row[1] > 0.5 {
			target += 2
		}
		if d > 2 && row[2] > 0.7 && row[0] < 0.3 {
			target -= 1.5
		}
		y[i] = target
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

func TestTrainFitsPiecewiseFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := makeRegression(rng, 2000, 5)
	cfg := DefaultConfig()
	cfg.Seed = 1
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	Xt, yt := makeRegression(rng, 500, 5)
	if got := mse(m, Xt, yt); got > 0.05 {
		t.Errorf("test MSE = %v, want < 0.05", got)
	}
}

func TestMoreTreesFitBetter(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := makeRegression(rng, 1500, 4)
	cfg := DefaultConfig()
	cfg.Seed = 2
	cfg.SubsampleRows, cfg.SubsampleCols = 1, 1

	cfg.NumTrees = 5
	small, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NumTrees = 80
	big, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mse(big, X, y) >= mse(small, X, y) {
		t.Errorf("80 trees (mse %v) should beat 5 trees (mse %v) on train",
			mse(big, X, y), mse(small, X, y))
	}
}

func TestSingleLeafDegenerateCase(t *testing.T) {
	// With MinSamplesLeaf bigger than the data, every tree is one leaf and
	// the model predicts the target mean.
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{10, 20, 30, 40}
	cfg := DefaultConfig()
	cfg.MinSamplesLeaf = 100
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{99}); math.Abs(got-25) > 1e-9 {
		t.Errorf("degenerate model predicts %v, want 25", got)
	}
}

func TestConstantTarget(t *testing.T) {
	X := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	y := []float64{7, 7, 7, 7}
	cfg := DefaultConfig()
	cfg.Seed = 3
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{0, 0}); math.Abs(got-7) > 1e-9 {
		t.Errorf("constant target predicted as %v", got)
	}
}

func TestConstantFeaturesNoSplit(t *testing.T) {
	// All-constant features must not crash split search; the model falls
	// back to the mean.
	X := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	y := []float64{1, 2, 3, 4}
	cfg := DefaultConfig()
	cfg.MinSamplesLeaf = 1
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{1, 1}); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("got %v, want 2.5", got)
	}
}

// gridMatrix is a grid of k/64 and k/128 with a little off-grid mass, and a
// column whose edges, at 3 + k·0.1, are not binary fractions; y is a
// function of every column.
func gridMatrix(rng *rand.Rand, n int) ([][]float64, []float64) {
	X, y := make([][]float64, n), make([]float64, n)
	for i := range X {
		X[i] = []float64{
			float64(rng.Intn(65)) / 64,
			float64(rng.Intn(129)) / 128,
			[]float64{0, 0.49, 0.5, 1}[rng.Intn(4)],
			3 + float64(rng.Intn(7))*0.1, // edges that are not exact binary fractions
			rng.Float64(),
		}
		y[i] = 4*X[i][0] - 3*X[i][1]*X[i][2] + 2*X[i][3] + X[i][4]
	}
	return X, y
}

// TestCellsAgreeWithTheSplitsTheyPrice: split search prices a split at a
// cell's edge with the rows of that cell and every cell below it on the left,
// grow partitions on the codes <= the cell's bin, and Predict sends X <= edge
// left. So for every row, feature and cell, the row must fall in a cell at or
// below that one, and carry a code at or below its bin, exactly when its value
// is <= the edge. Values that sit exactly on an edge are the case: on a [0,1]
// feature ½ is bin 31's upper edge at 64 bins, and QFT vectors are full of
// them (2.7 % of all values of the complex boot matrix). The matrices are
// gridMatrix's and the real complex and range boot matrices.
func TestCellsAgreeWithTheSplitsTheyPrice(t *testing.T) {
	grid, _ := gridMatrix(rand.New(rand.NewSource(5)), 600)
	matrices := map[string][][]float64{"grid": grid}
	for _, bs := range bootMatrices(t, 4_000, 400) {
		if bs.qft == "complex" || bs.qft == "range" {
			matrices[bs.qft] = bs.X
		}
	}
	for name, X := range matrices {
		b := newBuilder(X, DefaultConfig())
		d := len(X[0])
		featOf := make([]int, len(b.cellEdge))
		for f := 0; f < d; f++ {
			for c := b.cellLo[f]; c < b.cellLo[f+1]; c++ {
				featOf[c] = f
			}
		}
		onEdge, bad := 0, 0
		cellOf := make([]int, d) // the row's cell per feature; -1 is the last bin
		for r := range X {
			for f := range cellOf {
				cellOf[f] = -1
			}
			for _, rg := range b.ranges {
				for _, c := range rg.ids[rg.start[r]:rg.start[r+1]] {
					cellOf[featOf[c]] = int(c)
				}
			}
			for c, edge := range b.cellEdge {
				f := featOf[c]
				if X[r][f] == edge {
					onEdge++
				}
				left := cellOf[f] >= 0 && cellOf[f] <= c
				code := b.codes[f*b.n+r]
				if left != (X[r][f] <= edge) || left != (code <= b.cellBin[c]) {
					if bad++; bad <= 3 {
						t.Errorf("%s: row %d feature %d value %v is in cell %d with code %d, a split at cell %d's edge %v (bin %d) sends it the other way",
							name, r, f, X[r][f], cellOf[f], code, c, edge, b.cellBin[c])
					}
				}
			}
		}
		if onEdge == 0 {
			t.Errorf("%s: no value sits on a cell edge, the case under test", name)
		}
		if bad > 0 {
			t.Errorf("%s: %d (row, cell edge) pairs disagree, %d values on an edge", name, bad, onEdge)
		}
	}
}

func TestDeterminismUnderSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, y := makeRegression(rng, 500, 4)
	cfg := DefaultConfig()
	cfg.Seed = 42
	m1, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x := X[i]
		if m1.Predict(x) != m2.Predict(x) {
			t.Fatal("same seed must give identical models")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	X := [][]float64{{1}}
	y := []float64{1}
	bad := []Config{
		{NumTrees: 0, LearningRate: 0.1, MaxDepth: 3, MinSamplesLeaf: 1, MaxBins: 8, SubsampleRows: 1, SubsampleCols: 1},
		{NumTrees: 1, LearningRate: 0, MaxDepth: 3, MinSamplesLeaf: 1, MaxBins: 8, SubsampleRows: 1, SubsampleCols: 1},
		{NumTrees: 1, LearningRate: 0.1, MaxDepth: 0, MinSamplesLeaf: 1, MaxBins: 8, SubsampleRows: 1, SubsampleCols: 1},
		{NumTrees: 1, LearningRate: 0.1, MaxDepth: 3, MinSamplesLeaf: 0, MaxBins: 8, SubsampleRows: 1, SubsampleCols: 1},
		{NumTrees: 1, LearningRate: 0.1, MaxDepth: 3, MinSamplesLeaf: 1, MaxBins: 1, SubsampleRows: 1, SubsampleCols: 1},
		{NumTrees: 1, LearningRate: 0.1, MaxDepth: 3, MinSamplesLeaf: 1, MaxBins: 8, SubsampleRows: 0, SubsampleCols: 1},
		{NumTrees: 1, LearningRate: 0.1, MaxDepth: 3, MinSamplesLeaf: 1, MaxBins: 8, SubsampleRows: 1, SubsampleCols: 2},
	}
	for i, cfg := range bad {
		if _, err := Train(X, y, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := Train(nil, nil, DefaultConfig()); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := Train([][]float64{{1}, {2}}, []float64{1}, DefaultConfig()); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Train([][]float64{{1, 2}, {3}}, []float64{1, 2}, DefaultConfig()); err == nil {
		t.Error("ragged features accepted")
	}
	if err := DefaultConfig().validate(1, maxFeatures+1); err == nil {
		t.Error("a matrix too wide to number its histogram cells accepted")
	}
}

func TestPredictDimPanic(t *testing.T) {
	m, err := Train([][]float64{{1, 2}, {3, 4}}, []float64{1, 2}, DefaultConfig())
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

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X, y := makeRegression(rng, 300, 3)
	cfg := DefaultConfig()
	cfg.Seed = 6
	cfg.NumTrees = 10
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
}

func TestMemoryAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X, y := makeRegression(rng, 300, 3)
	cfg := DefaultConfig()
	cfg.NumTrees = 10
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() == 0 {
		t.Error("trained model has no nodes")
	}
	if m.MemoryBytes() <= 0 {
		t.Error("MemoryBytes not positive")
	}
	// Section 5.7: GB stays small — single-digit kilobytes at modest tree
	// counts is the paper's observation; allow generous slack.
	if m.MemoryBytes() > 10<<20 {
		t.Errorf("GB model unexpectedly large: %d bytes", m.MemoryBytes())
	}
}

func TestSampleInts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	got := sampleInts(rng, 10, 4)
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad sample %v", got)
		}
		seen[v] = true
	}
	if got := sampleInts(rng, 3, 10); len(got) != 3 {
		t.Errorf("oversized k should clamp to n; got %v", got)
	}
}

func TestValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X, y := makeRegression(rng, 200, 3)
	cfg := DefaultConfig()
	cfg.NumTrees = 5
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("trained model fails validation: %v", err)
	}

	// forest is a model over a hand-packed flat forest: roots, then nodes.
	forest := func(dim int, base float64, roots []int32, nodes ...flatNode) Model {
		return Model{Dim: dim, Base: base, flat: flatForest{nodes: nodes, roots: roots}}
	}
	leaf := func(v float64) flatNode { return flatNode{thr: v, feat: -1} }
	split := func(feat int32, thr float64, left int32) flatNode { return flatNode{thr: thr, feat: feat, left: left} }
	zero := []int32{0}
	if good := forest(1, 1, []int32{0, 3}, split(0, 0, 1), leaf(1), leaf(2), leaf(3)); good.Validate() != nil {
		t.Fatalf("a hand-packed forest fails validation: %v", good.Validate())
	}
	bad := []struct {
		name string
		m    Model
	}{
		{"zero dim", forest(0, 0, zero, leaf(1))},
		{"no trees", forest(1, 0, nil)},
		{"nan base", forest(1, math.NaN(), zero, leaf(1))},
		{"nan leaf", forest(1, 0, zero, leaf(math.NaN()))},
		{"inf leaf", forest(1, 0, zero, leaf(math.Inf(1)))},
		{"nan threshold", forest(1, 0, zero, split(0, math.NaN(), 1), leaf(0), leaf(0))},
		{"feature out of range", forest(1, 0, zero, split(3, 0, 1), leaf(0), leaf(0))},
		{"feature below the leaf mark", forest(1, 0, zero, split(-2, 0, 1), leaf(0), leaf(0))},
		{"child before parent", forest(1, 0, zero, leaf(0), split(0, 0, 0), leaf(0))},
		{"child is its parent", forest(1, 0, zero, split(0, 0, 0), leaf(0))},
		{"child out of range", forest(1, 0, zero, split(0, 0, 5), leaf(0))},
		{"right child past the end", forest(1, 0, zero, split(0, 0, 1), leaf(0))},
		{"child in the next tree", forest(1, 0, []int32{0, 2}, split(0, 0, 1), leaf(0), leaf(0))},
		{"first root not 0", forest(1, 0, []int32{1}, leaf(0), leaf(0))},
		{"roots repeat", forest(1, 0, []int32{0, 1, 1}, leaf(0), leaf(0))},
		{"roots descend", forest(1, 0, []int32{0, 2, 1}, leaf(0), leaf(0), leaf(0))},
		{"root past the last node", forest(1, 0, []int32{0, 1}, leaf(0))},
	}
	for _, b := range bad {
		if err := b.m.Validate(); err == nil {
			t.Errorf("%s: validated", b.name)
		}
	}
}

// TestLoadsSnapshotsWithExactSplits: every format-2 snapshot written while
// Config had an ExactSplits field holds it in its cfg, false for every model
// a daemon fit. Such a payload, with the field true or false, decodes and
// validates, and predicts every training row bit for bit as the model it was
// written from.
func TestLoadsSnapshotsWithExactSplits(t *testing.T) {
	X, y := makeRegression(rand.New(rand.NewSource(8)), 300, 3)
	cfg := DefaultConfig()
	cfg.NumTrees = 10
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, exact := range []string{"true", "false"} {
		old := strings.Replace(string(data), `"cfg":{`, `"cfg":{"ExactSplits":`+exact+`,`, 1)
		if old == string(data) {
			t.Fatal("the snapshot has no cfg object")
		}
		var back Model
		if err := json.Unmarshal([]byte(old), &back); err != nil {
			t.Fatalf("ExactSplits %s: %v", exact, err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("ExactSplits %s: %v", exact, err)
		}
		for i, x := range X {
			if got, want := back.Predict(x), m.Predict(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("ExactSplits %s: row %d predicted %v, the model it was written from %v", exact, i, got, want)
			}
		}
	}
}

func TestValidateSurvivesJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	X, y := makeRegression(rng, 150, 2)
	cfg := DefaultConfig()
	cfg.NumTrees = 3
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
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped model fails validation: %v", err)
	}
}
