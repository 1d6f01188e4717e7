// Package mscn implements the Multi-Set Convolutional Network of Kipf et
// al. [12] from scratch — the global-model architecture the paper extends
// with its QFTs (Sections 2.2.1, 4.2, and Table 2).
//
// The architecture follows the original: three input sets (tables, joins,
// predicates), each element passed through a per-set two-layer MLP (the
// learned "set convolution"), average-pooled within its set, the three
// pooled vectors concatenated, and a two-layer output MLP producing the
// estimate. Backpropagation through the average pooling distributes the
// pooled gradient uniformly over the set elements. Training uses mini-batch
// Adam on mean squared error.
package mscn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"qfe/internal/ml/mlmath"
)

// Sets is one featurized query: the three vector sets of Section 4.2. All
// vectors within a set must share that set's dimension. Empty sets must be
// represented by a single zero vector (the original implementation's
// padding convention, produced by core.MSCNFeaturizer).
type Sets struct {
	Tables [][]float64
	Joins  [][]float64
	Preds  [][]float64
}

// Config holds the network hyperparameters.
type Config struct {
	// HiddenSet is the width of the per-set MLPs.
	HiddenSet int
	// HiddenOut is the width of the output MLP's hidden layer.
	HiddenOut int
	// LearningRate is the Adam step size.
	LearningRate float64
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the mini-batch size.
	BatchSize int
	// Seed drives initialization and shuffling.
	Seed int64
}

// DefaultConfig mirrors a scaled-down version of the original MSCN sizing.
func DefaultConfig() Config {
	return Config{
		HiddenSet:    32,
		HiddenOut:    64,
		LearningRate: 1e-3,
		Epochs:       40,
		BatchSize:    64,
	}
}

func (c Config) validate() error {
	switch {
	case c.HiddenSet < 1 || c.HiddenOut < 1:
		return fmt.Errorf("mscn: hidden sizes must be >= 1")
	case c.LearningRate <= 0:
		return fmt.Errorf("mscn: LearningRate = %v, want > 0", c.LearningRate)
	case c.Epochs < 1:
		return fmt.Errorf("mscn: Epochs = %d, want >= 1", c.Epochs)
	case c.BatchSize < 1:
		return fmt.Errorf("mscn: BatchSize = %d, want >= 1", c.BatchSize)
	}
	return nil
}

// setModule is the per-set convolution: two dense layers with ReLU.
type setModule struct {
	l1, l2 *mlmath.Dense
}

func newSetModule(in, hidden int, rng *rand.Rand) *setModule {
	return &setModule{
		l1: mlmath.NewDense(in, hidden, rng),
		l2: mlmath.NewDense(hidden, hidden, rng),
	}
}

// forward returns the pooled output plus the per-element intermediates
// needed for backprop.
type setTrace struct {
	inputs [][]float64 // raw elements
	pre1   [][]float64
	act1   [][]float64
	pre2   [][]float64
	pooled []float64
}

func (s *setModule) forward(elems [][]float64) *setTrace {
	tr := &setTrace{inputs: elems}
	hidden := s.l2.Out
	tr.pooled = make([]float64, hidden)
	for _, e := range elems {
		pre1 := s.l1.Forward(e)
		act1 := mlmath.ReLU(append([]float64(nil), pre1...))
		pre2 := s.l2.Forward(act1)
		act2 := mlmath.ReLU(append([]float64(nil), pre2...))
		tr.pre1 = append(tr.pre1, pre1)
		tr.act1 = append(tr.act1, act1)
		tr.pre2 = append(tr.pre2, pre2)
		for i, v := range act2 {
			tr.pooled[i] += v
		}
	}
	inv := 1.0 / float64(len(elems))
	for i := range tr.pooled {
		tr.pooled[i] *= inv
	}
	return tr
}

// backward pushes dPooled through the pooling and the two layers,
// accumulating weight gradients.
func (s *setModule) backward(tr *setTrace, dPooled []float64) {
	inv := 1.0 / float64(len(tr.inputs))
	for ei := range tr.inputs {
		dAct2 := make([]float64, len(dPooled))
		for i, g := range dPooled {
			dAct2[i] = g * inv
		}
		mlmath.ReLUBackward(tr.pre2[ei], dAct2)
		dAct1 := s.l2.Backward(tr.act1[ei], dAct2)
		mlmath.ReLUBackward(tr.pre1[ei], dAct1)
		s.l1.Backward(tr.inputs[ei], dAct1)
	}
}

func (s *setModule) zeroGrad() { s.l1.ZeroGrad(); s.l2.ZeroGrad() }
func (s *setModule) step(lr float64, batch int) {
	s.l1.Step(lr, batch)
	s.l2.Step(lr, batch)
}
func (s *setModule) numParams() int { return s.l1.NumParams() + s.l2.NumParams() }

// Model is a trained multi-set convolutional network.
type Model struct {
	cfg                        Config
	tableMod, joinMod, predMod *setModule
	out1, out2                 *mlmath.Dense
	tableDim, joinDim, predDim int

	// pool hands out inference scratch for Predict (see fast.go).
	pool *sync.Pool
}

// newModel builds the freshly initialized layer stack for the three per-set
// vector dimensions, and with it the scratch pool sized from the layer
// widths. It is the only place a Model is made, so none exists without a
// pool.
func newModel(cfg Config, td, jd, pd int, rng *rand.Rand) *Model {
	h, ho := cfg.HiddenSet, cfg.HiddenOut
	return &Model{
		cfg:      cfg,
		tableMod: newSetModule(td, h, rng),
		joinMod:  newSetModule(jd, h, rng),
		predMod:  newSetModule(pd, h, rng),
		out1:     mlmath.NewDense(3*h, ho, rng),
		out2:     mlmath.NewDense(ho, 1, rng),
		tableDim: td, joinDim: jd, predDim: pd,
		pool: &sync.Pool{New: func() any {
			return &inferScratch{
				h1:     make([]float64, h),
				h2:     make([]float64, h),
				pooled: make([]float64, 3*h),
				o1:     make([]float64, ho),
				o2:     make([]float64, 1),
			}
		}},
	}
}

// Train fits the network. All samples must agree on the three per-set
// vector dimensions.
func Train(samples []*Sets, y []float64, cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("mscn: no training samples")
	}
	if len(y) != len(samples) {
		return nil, fmt.Errorf("mscn: %d samples but %d targets", len(samples), len(y))
	}
	td, jd, pd, err := dims(samples[0])
	if err != nil {
		return nil, err
	}
	for i, s := range samples {
		if err := checkDims(s, td, jd, pd); err != nil {
			return nil, fmt.Errorf("mscn: sample %d: %w", i, err)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	m := newModel(cfg, td, jd, pd, rng)

	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}

	mods := []*setModule{m.tableMod, m.joinMod, m.predMod}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		mlmath.Shuffle(idx, rng)
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			for _, mod := range mods {
				mod.zeroGrad()
			}
			m.out1.ZeroGrad()
			m.out2.ZeroGrad()
			for _, i := range batch {
				m.backprop(samples[i], y[i])
			}
			for _, mod := range mods {
				mod.step(cfg.LearningRate, len(batch))
			}
			m.out1.Step(cfg.LearningRate, len(batch))
			m.out2.Step(cfg.LearningRate, len(batch))
		}
	}
	return m, nil
}

func dims(s *Sets) (td, jd, pd int, err error) {
	if len(s.Tables) == 0 || len(s.Joins) == 0 || len(s.Preds) == 0 {
		return 0, 0, 0, fmt.Errorf("mscn: empty set (pad empty sets with one zero vector)")
	}
	return len(s.Tables[0]), len(s.Joins[0]), len(s.Preds[0]), nil
}

func checkDims(s *Sets, td, jd, pd int) error {
	check := func(name string, set [][]float64, want int) error {
		if len(set) == 0 {
			return fmt.Errorf("%s set is empty", name)
		}
		for _, v := range set {
			if len(v) != want {
				return fmt.Errorf("%s vector has dim %d, want %d", name, len(v), want)
			}
		}
		return nil
	}
	if err := check("table", s.Tables, td); err != nil {
		return err
	}
	if err := check("join", s.Joins, jd); err != nil {
		return err
	}
	return check("pred", s.Preds, pd)
}

func (m *Model) backprop(s *Sets, target float64) {
	tt := m.tableMod.forward(s.Tables)
	jt := m.joinMod.forward(s.Joins)
	pt := m.predMod.forward(s.Preds)

	concat := make([]float64, 0, 3*m.cfg.HiddenSet)
	concat = append(concat, tt.pooled...)
	concat = append(concat, jt.pooled...)
	concat = append(concat, pt.pooled...)

	pre1 := m.out1.Forward(concat)
	act1 := mlmath.ReLU(append([]float64(nil), pre1...))
	out := m.out2.Forward(act1)

	_, grad := mlmath.MSEGrad(out[0], target)
	dAct1 := m.out2.Backward(act1, []float64{grad})
	mlmath.ReLUBackward(pre1, dAct1)
	dConcat := m.out1.Backward(concat, dAct1)

	h := m.cfg.HiddenSet
	m.tableMod.backward(tt, dConcat[0:h])
	m.joinMod.backward(jt, dConcat[h:2*h])
	m.predMod.backward(pt, dConcat[2*h:3*h])
}

// Predict returns the network output for one featurized query, evaluated in
// pooled scratch buffers (see fast.go) without allocating.
func (m *Model) Predict(s *Sets) float64 {
	if err := checkDims(s, m.tableDim, m.joinDim, m.predDim); err != nil {
		panic("mscn: " + err.Error())
	}
	sc := m.pool.Get().(*inferScratch)
	out := m.predictWith(sc, s)
	m.pool.Put(sc)
	return out
}

// NumParams returns the trainable parameter count — the basis of the
// Section 5.7 lower bound on MSCN's memory footprint.
func (m *Model) NumParams() int {
	return m.tableMod.numParams() + m.joinMod.numParams() + m.predMod.numParams() +
		m.out1.NumParams() + m.out2.NumParams()
}

// MemoryBytes estimates the resident model size (8 bytes per parameter).
func (m *Model) MemoryBytes() int { return m.NumParams() * 8 }

// SanityCheckGradients verifies the hand-written backprop against central
// finite differences on a tiny instance; exported for the test suite.
func SanityCheckGradients(seed int64) (maxRelErr float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	sample := &Sets{
		Tables: [][]float64{{1, 0}, {0, 1}},
		Joins:  [][]float64{{1}},
		Preds:  [][]float64{{0.2, 0.8, 0.5}, {0.9, 0.1, 0.3}},
	}
	target := 0.7
	cfg := Config{HiddenSet: 4, HiddenOut: 5, LearningRate: 1e-3, Epochs: 1, BatchSize: 1, Seed: seed}
	m := newModel(cfg, 2, 1, 3, rng)
	loss := func() float64 {
		diff := m.Predict(sample) - target
		return 0.5 * diff * diff
	}
	// Analytic gradients.
	mods := []*setModule{m.tableMod, m.joinMod, m.predMod}
	for _, mod := range mods {
		mod.zeroGrad()
	}
	m.out1.ZeroGrad()
	m.out2.ZeroGrad()
	m.backprop(sample, target)

	layers := []*mlmath.Dense{
		m.tableMod.l1, m.tableMod.l2, m.joinMod.l1, m.joinMod.l2,
		m.predMod.l1, m.predMod.l2, m.out1, m.out2,
	}
	const h = 1e-6
	for _, l := range layers {
		for i := range l.W {
			orig := l.W[i]
			l.W[i] = orig + h
			up := loss()
			l.W[i] = orig - h
			down := loss()
			l.W[i] = orig
			numeric := (up - down) / (2 * h)
			analytic := l.GradW(i)
			denom := math.Max(math.Abs(numeric), math.Abs(analytic))
			if denom < 1e-8 {
				continue
			}
			if rel := math.Abs(numeric-analytic) / denom; rel > maxRelErr {
				maxRelErr = rel
			}
		}
	}
	return maxRelErr, nil
}
