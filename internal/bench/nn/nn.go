// Package nn implements the feed-forward (multi-layer perceptron) regressor
// used as the "NN" model throughout the paper's evaluation, after Woltmann
// et al. [32]: dense layers with ReLU activations trained by mini-batch
// Adam on a mean-squared-error loss.
//
// The network is input-agnostic (Section 2.2): for a fixed input length it
// consumes any numeric vector, which is what lets the QFTs vary while the
// architecture stays put. The paper's Keras/TensorFlow stack is replaced by
// a from-scratch float64 implementation (see DESIGN.md, substitutions).
//
// Only the experiment harness trains it: the daemon serves gradient boosting,
// which beat the network on accuracy, inference CPU and training time (ext9),
// so a network is never persisted and has one forward, the one training runs.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"qfe/internal/bench/mlmath"
	"qfe/internal/parallel"
)

// Config holds the network hyperparameters.
type Config struct {
	// Hidden lists the hidden-layer widths, e.g. {128, 64}.
	Hidden []int
	// LearningRate is the Adam step size.
	LearningRate float64
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the mini-batch size.
	BatchSize int
	// ValFraction holds out this fraction of the training set to monitor
	// validation loss for early stopping; 0 disables the hold-out.
	ValFraction float64
	// Patience stops training after this many epochs without validation
	// improvement; 0 disables early stopping.
	Patience int
	// Seed drives initialization and shuffling; training is deterministic
	// given a seed.
	Seed int64
	// Workers bounds the goroutines that fan mini-batch forward/backward
	// passes and the validation sweep across samples; < 1 means one per
	// logical CPU. Trained weights are bit-identical for every Workers
	// value: per-sample gradients accumulate within fixed 8-sample shards
	// (see gradShardSize) and shards reduce in index order after the pool
	// drains, so the floating-point summation tree never depends on
	// scheduling.
	Workers int
}

// DefaultConfig mirrors the modest two-hidden-layer setup of the local-model
// paper [32], sized for this reproduction's workloads.
func DefaultConfig() Config {
	return Config{
		Hidden:       []int{64, 32},
		LearningRate: 1e-3,
		Epochs:       40,
		BatchSize:    64,
		ValFraction:  0.1,
		Patience:     8,
	}
}

func (c Config) validate() error {
	switch {
	case len(c.Hidden) == 0:
		return fmt.Errorf("nn: no hidden layers configured")
	case c.LearningRate <= 0:
		return fmt.Errorf("nn: LearningRate = %v, want > 0", c.LearningRate)
	case c.Epochs < 1:
		return fmt.Errorf("nn: Epochs = %d, want >= 1", c.Epochs)
	case c.BatchSize < 1:
		return fmt.Errorf("nn: BatchSize = %d, want >= 1", c.BatchSize)
	case c.ValFraction < 0 || c.ValFraction >= 1:
		return fmt.Errorf("nn: ValFraction = %v, want in [0, 1)", c.ValFraction)
	}
	for _, h := range c.Hidden {
		if h < 1 {
			return fmt.Errorf("nn: hidden width %d, want >= 1", h)
		}
	}
	return nil
}

// Model is a trained feed-forward regressor.
type Model struct {
	layers []*mlmath.Dense
	dim    int
}

// Train fits the network on X (row-major samples) and targets y.
func Train(X [][]float64, y []float64, cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(X)
	if n == 0 {
		return nil, fmt.Errorf("nn: no training samples")
	}
	if len(y) != n {
		return nil, fmt.Errorf("nn: %d samples but %d targets", n, len(y))
	}
	d := len(X[0])
	if d == 0 {
		return nil, fmt.Errorf("nn: zero-dimensional features")
	}
	for i, row := range X {
		if len(row) != d {
			return nil, fmt.Errorf("nn: sample %d has %d features, want %d", i, len(row), d)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{dim: d}
	prev := d
	for _, h := range cfg.Hidden {
		m.layers = append(m.layers, mlmath.NewDense(prev, h, rng))
		prev = h
	}
	m.layers = append(m.layers, mlmath.NewDense(prev, 1, rng))

	// Train/validation split for early stopping.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	mlmath.Shuffle(idx, rng)
	nVal := int(cfg.ValFraction * float64(n))
	if cfg.Patience == 0 {
		nVal = 0
	}
	valIdx, trainIdx := idx[:nVal], idx[nVal:]
	if len(trainIdx) == 0 {
		return nil, fmt.Errorf("nn: validation split leaves no training samples")
	}

	bestVal := math.Inf(1)
	sinceBest := 0
	var bestSnapshot [][]float64

	workers := parallel.Workers(cfg.Workers)
	maxShards := (cfg.BatchSize + gradShardSize - 1) / gradShardSize
	shards := make([]*shardGrads, maxShards)
	for i := range shards {
		shards[i] = newShardGrads(m.layers)
	}
	valPred := make([]float64, nVal)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		mlmath.Shuffle(trainIdx, rng)
		for start := 0; start < len(trainIdx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(trainIdx) {
				end = len(trainIdx)
			}
			batch := trainIdx[start:end]
			// Forward/backward fans out across fixed-size sample shards;
			// each shard accumulates into private buffers. The shard
			// partition depends only on BatchSize, never on workers, so
			// the gradient sum below is reproducible for any parallelism.
			numShards := (len(batch) + gradShardSize - 1) / gradShardSize
			parallel.Do(numShards, workers, func(si int) {
				sg := shards[si]
				sg.zero()
				lo := si * gradShardSize
				hi := lo + gradShardSize
				if hi > len(batch) {
					hi = len(batch)
				}
				for _, i := range batch[lo:hi] {
					m.backpropInto(X[i], y[i], sg)
				}
			})
			for _, l := range m.layers {
				l.ZeroGrad()
			}
			// Deterministic reduction: shards fold in index order.
			for si := 0; si < numShards; si++ {
				for li, l := range m.layers {
					l.AddGrad(shards[si].w[li], shards[si].b[li])
				}
			}
			for _, l := range m.layers {
				l.Step(cfg.LearningRate, len(batch))
			}
		}

		if nVal > 0 {
			// Validation predictions are independent per sample (each
			// writes its own slot); the loss sums sequentially in hold-out
			// order, bit-identical to a serial pass.
			parallel.DoChunks(nVal, workers, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					valPred[j] = m.Predict(X[valIdx[j]])
				}
			})
			var valLoss float64
			for j, i := range valIdx {
				diff := valPred[j] - y[i]
				valLoss += diff * diff
			}
			valLoss /= float64(nVal)
			if valLoss < bestVal-1e-9 {
				bestVal = valLoss
				sinceBest = 0
				bestSnapshot = m.snapshot()
			} else {
				sinceBest++
				if sinceBest >= cfg.Patience {
					break
				}
			}
		}
	}
	if bestSnapshot != nil {
		m.restore(bestSnapshot)
	}
	return m, nil
}

// gradShardSize is the number of consecutive mini-batch samples whose
// gradients accumulate into one private shard before the ordered
// cross-shard reduction. It is a fixed constant — NOT derived from the
// worker count — which is what makes trained weights bit-identical for
// every Workers setting: the floating-point summation tree is a function
// of the batch alone.
const gradShardSize = 8

// shardGrads holds one shard's private per-layer gradient buffers.
type shardGrads struct {
	w [][]float64
	b [][]float64
}

func newShardGrads(layers []*mlmath.Dense) *shardGrads {
	sg := &shardGrads{}
	for _, l := range layers {
		sg.w = append(sg.w, make([]float64, l.In*l.Out))
		sg.b = append(sg.b, make([]float64, l.Out))
	}
	return sg
}

func (sg *shardGrads) zero() {
	for _, w := range sg.w {
		for i := range w {
			w[i] = 0
		}
	}
	for _, b := range sg.b {
		for i := range b {
			b[i] = 0
		}
	}
}

// forward runs the network on x: Dense.Forward per layer, ReLU between
// layers. When inputs and pres are non-nil (len(m.layers) each) it keeps
// every layer's input and pre-activation there, for the backward pass.
func (m *Model) forward(x []float64, inputs, pres [][]float64) float64 {
	act := x
	for li, l := range m.layers {
		pre := l.Forward(act)
		if inputs != nil {
			inputs[li], pres[li] = act, pre
		}
		if li < len(m.layers)-1 {
			act = mlmath.ReLU(append([]float64(nil), pre...))
		} else {
			act = pre
		}
	}
	return act[0]
}

// backpropInto runs one forward/backward pass, accumulating gradients into
// the given shard's private buffers so concurrent samples never share
// accumulation state.
func (m *Model) backpropInto(x []float64, target float64, sg *shardGrads) {
	inputs := make([][]float64, len(m.layers))
	pres := make([][]float64, len(m.layers))
	out := m.forward(x, inputs, pres)
	_, grad := mlmath.MSEGrad(out, target)
	dy := []float64{grad}
	for li := len(m.layers) - 1; li >= 0; li-- {
		dx := m.layers[li].BackwardInto(inputs[li], dy, sg.w[li], sg.b[li])
		if li > 0 {
			dy = mlmath.ReLUBackward(pres[li-1], dx)
		}
	}
}

// Predict returns the network output for one feature vector: the forward
// pass training runs.
func (m *Model) Predict(x []float64) float64 {
	if len(x) != m.dim {
		panic(fmt.Sprintf("nn: input dim %d, model dim %d", len(x), m.dim))
	}
	return m.forward(x, nil, nil)
}

// NumParams returns the trainable parameter count.
func (m *Model) NumParams() int {
	total := 0
	for _, l := range m.layers {
		total += l.NumParams()
	}
	return total
}

// MemoryBytes estimates the model's resident size (8 bytes per parameter),
// the Section 5.7 accounting under which the NN is the largest estimator.
func (m *Model) MemoryBytes() int { return m.NumParams() * 8 }

// snapshot copies all weights; restore writes them back. Used to keep the
// best-validation-epoch weights under early stopping.
func (m *Model) snapshot() [][]float64 {
	var out [][]float64
	for _, l := range m.layers {
		out = append(out, append([]float64(nil), l.W...), append([]float64(nil), l.B...))
	}
	return out
}

func (m *Model) restore(snap [][]float64) {
	for i, l := range m.layers {
		copy(l.W, snap[2*i])
		copy(l.B, snap[2*i+1])
	}
}
