// Package gb implements gradient-boosted regression trees from scratch: the
// lightweight model class the paper adopts from Dutt et al. [5] and
// identifies as its best-performing estimator ("GB" throughout Section 5).
//
// The estimator is the paper's Equation 5: a sum of P weak predictors — here
// depth-limited regression trees fit to the residuals of their predecessors
// — each shrunk by a learning rate, plus a constant. Split search uses
// feature histograms (the strategy of LightGBM, which the paper uses), with
// an exact-search mode retained for the ablation benchmark. The histograms
// are sparse — only the occupied bins below a feature's last one are
// accumulated, which is what a QFT matrix rewards (its "no predicate" is a
// column's last bin) — and their sums are exact: each stage rounds its
// residuals to a grid on which float64 addition commutes (residuals), so a
// node's histogram is its parent's less its sibling's, only the smaller child
// of a split is accumulated, and the model does not depend on the order
// anything is summed in.
package gb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"qfe/internal/parallel"
)

// ErrCanceled reports that training was aborted by its context. The
// returned error also wraps the context's own error, so callers may test
// either errors.Is(err, ErrCanceled) or errors.Is(err, context.Canceled).
var ErrCanceled = errors.New("gb: training canceled")

// ErrBadCheckpoint reports that a Resume payload cannot be continued: it does
// not decode, holds a model Validate refuses, or was taken under another
// Config, input width or target set. A fit without it can still succeed.
var ErrBadCheckpoint = errors.New("gb: checkpoint cannot be resumed")

// TrainOpts carries the optional checkpointing hooks of TrainCtx. The zero
// value (or a nil pointer) trains without checkpoints.
type TrainOpts struct {
	// CheckpointEvery emits a checkpoint after every this-many completed
	// trees; 0 disables checkpointing.
	CheckpointEvery int
	// OnCheckpoint receives each serialized checkpoint. A non-nil return
	// aborts training with that error: a trainer that cannot persist its
	// progress must not pretend the run is resumable.
	OnCheckpoint func(payload []byte) error
	// Resume, when non-empty, is a payload previously passed to
	// OnCheckpoint; training continues from it bit-identically to a run
	// that was never interrupted (same Config, X, and y required).
	Resume []byte
}

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
	// ExactSplits switches from histogram to exact threshold search — far
	// slower, kept for the DESIGN.md split-search ablation.
	ExactSplits bool
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
	// cross-feature winner is reduced in fixed feature order — which is why a
	// checkpoint resumes under any Workers.
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
// packed into one flat forest (flat.go) — the form Predict walks, snapshots
// and checkpoints store, and the only one a model holds after its fit.
type Model struct {
	Cfg  Config
	Base float64 // the constant c of Equation 5
	Dim  int

	flat flatForest
}

// Train fits a gradient-boosting model on X (row-major samples) and targets
// y. X must be rectangular and len(X) == len(y).
func Train(X [][]float64, y []float64, cfg Config) (*Model, error) {
	return TrainCtx(context.Background(), X, y, cfg, nil)
}

// TrainCtx is Train with cancellation (checked between boosting stages) and
// optional checkpointing. Resuming from a checkpoint replays the RNG draws
// of the completed trees, so the finished ensemble is bit-identical to an
// uninterrupted run with the same inputs.
func TrainCtx(ctx context.Context, X [][]float64, y []float64, cfg Config, opts *TrainOpts) (*Model, error) {
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

	startTree := 0
	if opts != nil && len(opts.Resume) > 0 {
		var ck Model
		if err := json.Unmarshal(opts.Resume, &ck); err != nil {
			return nil, fmt.Errorf("%w: decode: %w", ErrBadCheckpoint, err)
		}
		// Workers is not compared: it changes how fast a model is fit, not
		// which one, so a job restarted on a different core count resumes.
		ckCfg := ck.Cfg
		ckCfg.Workers = cfg.Workers
		switch {
		case ckCfg != cfg:
			return nil, fmt.Errorf("%w: config %+v does not match %+v", ErrBadCheckpoint, ck.Cfg, cfg)
		case ck.Dim != d:
			return nil, fmt.Errorf("%w: dim %d, training data has %d", ErrBadCheckpoint, ck.Dim, d)
		case ck.Base != m.Base:
			return nil, fmt.Errorf("%w: base %v, the training targets' mean is %v", ErrBadCheckpoint, ck.Base, m.Base)
		case len(ck.flat.roots) > cfg.NumTrees:
			return nil, fmt.Errorf("%w: %d trees, config wants %d", ErrBadCheckpoint, len(ck.flat.roots), cfg.NumTrees)
		}
		if err := ck.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadCheckpoint, err)
		}
		m.flat = ck.flat
		startTree = len(m.flat.roots)
		// Replay the subsampling draws the completed trees consumed, so the
		// remaining trees see the exact RNG stream they would have seen.
		for t := 0; t < startTree; t++ {
			b.draw(rng)
		}
		// Rebuild the running predictions from the restored forest: the walk
		// adds lr·leaf to Base tree by tree, as the fit did.
		parallel.DoChunks(n, b.workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				pred[i] = m.flat.predict(X[i], m.Base, cfg.LearningRate)
			}
		})
	}

	for t := startTree; t < cfg.NumTrees; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCanceled, err)
		}
		tr, err := b.boost(rng, y, pred, resid)
		if err != nil {
			return nil, fmt.Errorf("gb: tree %d: %w", t+1, err)
		}
		if err := m.flat.appendTree(tr); err != nil {
			return nil, err
		}
		if opts != nil && opts.OnCheckpoint != nil && opts.CheckpointEvery > 0 &&
			(t+1)%opts.CheckpointEvery == 0 && t+1 < cfg.NumTrees {
			payload, err := json.Marshal(m)
			if err != nil {
				return nil, fmt.Errorf("gb: encode checkpoint: %w", err)
			}
			if err := opts.OnCheckpoint(payload); err != nil {
				return nil, fmt.Errorf("gb: checkpoint after tree %d: %w", t+1, err)
			}
		}
	}
	m.flat.trim()
	return m, nil
}

// boost fits the next tree of the ensemble to the residuals of pred, on the
// rows and columns it draws, and advances pred by it: the leaves do so for
// the rows the tree is grown on, the others walk the tree. The tree is an
// arena the caller packs onto the forest and drops.
func (b *builder) boost(rng *rand.Rand, y, pred, resid []float64) (*tree, error) {
	if err := residuals(resid, y, pred); err != nil {
		return nil, err
	}
	rows, cols := b.draw(rng)
	t := &tree{}
	var hist []histCell
	if !b.cfg.ExactSplits && b.searches(len(rows), 1) {
		hist = b.takeHist()
		b.accumulate(hist, rows, resid)
	}
	b.grow(t, rows, cols, resid, pred, 1, hist)
	for _, i := range rows[len(rows):cap(rows)] { // sampleInts keeps the rows it left out there
		pred[i] += b.cfg.LearningRate * t.predict(b.X[i])
	}
	return t, nil
}

// draw takes one tree's row and column samples from rng; a rate of 1 draws
// nothing.
func (b *builder) draw(rng *rand.Rand) (rows, cols []int) {
	n, d := b.n, len(b.X[0])
	rows = sampleInts(rng, n, int(math.Ceil(b.cfg.SubsampleRows*float64(n))))
	return rows, sampleInts(rng, d, int(math.Ceil(b.cfg.SubsampleCols*float64(d))))
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
// flat forest, without allocating. The model must come from Train/TrainCtx,
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
