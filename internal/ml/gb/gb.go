// Package gb implements gradient-boosted regression trees from scratch: the
// lightweight model class the paper adopts from Dutt et al. [5] and
// identifies as its best-performing estimator ("GB" throughout Section 5).
//
// The estimator is the paper's Equation 5: a sum of P weak predictors — here
// depth-limited regression trees fit to the residuals of their predecessors
// — each shrunk by a learning rate, plus a constant. Split search uses
// feature histograms (the strategy of LightGBM, which the paper uses): every
// feature is cut once into MaxBins uniform bins, and the fit reads the
// training rows only as their bin codes from then on. The histograms are
// sparse — only the occupied bins below a feature's last one are
// accumulated, which is what a QFT matrix rewards (its "no predicate" is a
// column's last bin) — and their sums are exact: each stage rounds its
// residuals to a grid on which float64 addition commutes (residuals), so a
// node's histogram is its parent's less its sibling's, only the smaller child
// of a split is accumulated, and the model does not depend on the order
// anything is summed in.
package gb

import (
	"fmt"
	"math"
	"math/rand"
)

// Config holds the gradient-boosting hyperparameters. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// NumTrees is P, the number of boosting stages.
	NumTrees int
	// LearningRate shrinks each tree's contribution (λ in Equation 5).
	LearningRate float64
	// MaxDepth limits each regression tree's depth.
	MaxDepth int
	// MinSamplesLeaf is the minimum number of training samples per leaf.
	MinSamplesLeaf int
	// MaxBins is the number of histogram bins per feature for split search.
	MaxBins int
	// SubsampleRows is the fraction of rows sampled (without replacement)
	// per tree; 1 disables row subsampling.
	SubsampleRows float64
	// SubsampleCols is the fraction of features considered per tree;
	// 1 disables column subsampling.
	SubsampleCols float64
	// Seed drives subsampling; training is deterministic given a seed.
	Seed int64
	// Workers bounds the goroutines used for feature binning and split
	// search; < 1 means one per logical CPU. Split search cuts the features
	// into Workers contiguous ranges and fans the accumulation of a histogram
	// out over them only when the rows carry enough entries to repay the
	// wake-up (fanOutEntries), so on small training sets it is the binning
	// that uses the extra cores. The trained model is bit-identical for every
	// Workers value: sums of a stage's residuals are exact, so a cell holds
	// the same float whoever adds to it in whatever order, and the
	// cross-feature winner is reduced in fixed feature order.
	Workers int `json:",omitempty"`
}

// DefaultConfig mirrors a lightly tuned LightGBM-style configuration
// adequate for the paper's workloads.
func DefaultConfig() Config {
	return Config{
		NumTrees:       120,
		LearningRate:   0.12,
		MaxDepth:       7,
		MinSamplesLeaf: 10,
		MaxBins:        64,
		SubsampleRows:  0.9,
		SubsampleCols:  0.8,
	}
}

func (c Config) validate(n, d int) error {
	switch {
	case c.NumTrees < 1:
		return fmt.Errorf("gb: NumTrees = %d, want >= 1", c.NumTrees)
	case c.LearningRate <= 0 || c.LearningRate > 1:
		return fmt.Errorf("gb: LearningRate = %v, want in (0, 1]", c.LearningRate)
	case c.MaxDepth < 1:
		return fmt.Errorf("gb: MaxDepth = %d, want >= 1", c.MaxDepth)
	case c.MinSamplesLeaf < 1:
		return fmt.Errorf("gb: MinSamplesLeaf = %d, want >= 1", c.MinSamplesLeaf)
	case c.MaxBins < 2 || c.MaxBins > 256:
		return fmt.Errorf("gb: MaxBins = %d, want in [2, 256]", c.MaxBins)
	case c.SubsampleRows <= 0 || c.SubsampleRows > 1:
		return fmt.Errorf("gb: SubsampleRows = %v, want in (0, 1]", c.SubsampleRows)
	case c.SubsampleCols <= 0 || c.SubsampleCols > 1:
		return fmt.Errorf("gb: SubsampleCols = %v, want in (0, 1]", c.SubsampleCols)
	case n == 0:
		return fmt.Errorf("gb: no training samples")
	case d == 0:
		return fmt.Errorf("gb: zero-dimensional features")
	case d > maxFeatures:
		return fmt.Errorf("gb: %d features, want at most %d", d, maxFeatures)
	}
	return nil
}

// maxFeatures bounds the width of a training matrix so that split search can
// number every histogram cell — at most 255 per feature — in a uint32.
const maxFeatures = math.MaxUint32 / 256

// Model is a trained gradient-boosting regressor: a constant plus its trees,
// packed into one flat forest (flat.go) — the form Predict walks and
// snapshots store, and the only one a model holds after its fit.
type Model struct {
	Cfg  Config
	Base float64 // the constant c of Equation 5
	Dim  int

	flat flatForest
}

// Train fits a gradient-boosting model on X (row-major samples) and targets
// y. X must be rectangular, finite and len(X) == len(y).
func Train(X [][]float64, y []float64, cfg Config) (*Model, error) {
	n := len(X)
	d := 0
	if n > 0 {
		d = len(X[0])
	}
	if err := cfg.validate(n, d); err != nil {
		return nil, err
	}
	if len(y) != n {
		return nil, fmt.Errorf("gb: %d samples but %d targets", n, len(y))
	}
	for i, row := range X {
		if len(row) != d {
			return nil, fmt.Errorf("gb: sample %d has %d features, want %d", i, len(row), d)
		}
		for f, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("gb: sample %d feature %d is %v, want a finite value", i, f, v)
			}
		}
		if math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
			return nil, fmt.Errorf("gb: target %d is %v, want a finite value", i, y[i])
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg, Dim: d}

	// Base prediction: the target mean (the constant c of Equation 5).
	var sum float64
	for _, v := range y {
		sum += v
	}
	m.Base = sum / float64(n)

	b := newBuilder(X, cfg)

	pred := make([]float64, n)
	for i := range pred {
		pred[i] = m.Base
	}
	resid := make([]float64, n)

	for t := 0; t < cfg.NumTrees; t++ {
		tr, err := b.boost(rng, y, pred, resid)
		if err != nil {
			return nil, fmt.Errorf("gb: tree %d: %w", t+1, err)
		}
		if err := m.flat.appendTree(tr); err != nil {
			return nil, err
		}
	}
	m.flat.trim()
	return m, nil
}

// boost fits the next tree of the ensemble to the residuals of pred, on the
// rows and columns it draws, and advances pred by it: the leaves do so for
// the rows the tree is grown on, the others walk the tree on their codes. The
// tree is an arena the caller packs onto the forest and drops.
func (b *builder) boost(rng *rand.Rand, y, pred, resid []float64) (*tree, error) {
	if err := residuals(resid, y, pred); err != nil {
		return nil, err
	}
	// One tree's row and column samples; a rate of 1 draws nothing.
	rows := sampleInts(rng, b.n, int(math.Ceil(b.cfg.SubsampleRows*float64(b.n))))
	cols := sampleInts(rng, b.d, int(math.Ceil(b.cfg.SubsampleCols*float64(b.d))))
	t := &tree{}
	var hist []histCell
	if b.searches(len(rows), 1) {
		hist = b.takeHist()
		b.accumulate(hist, rows, resid)
	}
	b.grow(t, rows, cols, resid, pred, 1, hist)
	for _, i := range rows[len(rows):cap(rows)] { // sampleInts keeps the rows it left out there
		pred[i] += b.cfg.LearningRate * b.leaf(t, i)
	}
	return t, nil
}

// residuals sets resid to y - pred rounded to multiples of a power of two, the
// stage's grid, coarse enough that the sum of any of them in any order is a
// float64 and so exact: n·max|resid| < 2^e puts the unit at 2^(e-52), every
// residual at under 2^52/n + 1 units and every sum under 2^53. That is what
// lets childHists take a histogram as its parent's less its sibling's. The
// unit stops at the smallest subnormal, of which every float64 is a multiple.
func residuals(resid, y, pred []float64) error {
	var mx float64
	for i := range resid {
		resid[i] = y[i] - pred[i]
		mx = math.Max(mx, math.Abs(resid[i]))
	}
	bound := float64(len(resid)) * mx
	if !(2*bound <= math.MaxFloat64) {
		return fmt.Errorf("%d residuals of magnitude up to %v: their sums overflow", len(resid), mx)
	}
	_, e := math.Frexp(bound)
	unit := math.Ldexp(1, max(e-52, -1074))
	for i, g := range resid {
		resid[i] = math.RoundToEven(g/unit) * unit
	}
	return nil
}

func predictDimPanic(got, want int) string {
	return fmt.Sprintf("gb: input dim %d, model dim %d", got, want)
}

// Predict returns the model output for one feature vector by walking the
// flat forest, without allocating. The model must come from Train,
// or from UnmarshalJSON followed by a Validate that returned nil.
func (m *Model) Predict(x []float64) float64 {
	if len(x) != m.Dim {
		panic(predictDimPanic(len(x), m.Dim))
	}
	return m.flat.predict(x, m.Base, m.Cfg.LearningRate)
}

// NumNodes returns the total node count over all trees.
func (m *Model) NumNodes() int {
	return len(m.flat.nodes)
}

// MemoryBytes reports the model's resident inference size — the Section 5.7
// accounting that finds GB the smallest estimator: the flat forest (per node:
// threshold or leaf value, feature id, left child; plus per-tree root
// offsets), which is all a trained model holds, plus its scalars.
func (m *Model) MemoryBytes() int {
	return m.flat.memoryBytes() + 16
}

// Validate checks the invariants a deserialized model must hold before
// Predict may run on it: a positive input width, a finite base, and a flat
// forest whose walk terminates and never indexes out of bounds (see
// flatForest.validate), even on hand-edited or corrupted files.
func (m *Model) Validate() error {
	if m.Dim < 1 {
		return fmt.Errorf("gb: model dim %d, want >= 1", m.Dim)
	}
	if math.IsNaN(m.Base) || math.IsInf(m.Base, 0) {
		return fmt.Errorf("gb: base prediction %v is not finite", m.Base)
	}
	return m.flat.validate(m.Dim)
}

// sampleInts draws k distinct ints from [0, n) via partial Fisher-Yates,
// returned sorted-free (order is random but deterministic under the rng). The
// ints it did not draw follow the sample, up to the capacity of the slice.
func sampleInts(rng *rand.Rand, n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := rng.Perm(n)
	return perm[:k]
}
