package mscn

import (
	"math"
	"math/rand"
	"testing"

	"qfe/internal/bench/mlmath"
)

// TestGradientsAgainstFiniteDifferences verifies the hand-written backprop
// through set pooling and both MLP stacks.
func TestGradientsAgainstFiniteDifferences(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		if rel := gradientError(seed); rel > 1e-4 {
			t.Errorf("seed %d: max relative gradient error %v", seed, rel)
		}
	}
}

// gradientError is the largest relative error between the hand-written
// backprop's weight gradients and central finite differences on a tiny
// instance.
func gradientError(seed int64) (maxRelErr float64) {
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
	m.zeroGrad()
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
	return maxRelErr
}

// synthSample builds a random Sets sample whose target depends on all three
// sets, so learning requires every pathway.
func synthSample(rng *rand.Rand) (*Sets, float64) {
	nPreds := 1 + rng.Intn(3)
	s := &Sets{
		Tables: [][]float64{{0, 0, 0}},
		Joins:  [][]float64{{0, 0}},
	}
	ti := rng.Intn(3)
	s.Tables[0][ti] = 1
	ji := rng.Intn(2)
	s.Joins[0][ji] = 1
	target := 0.3*float64(ti) - 0.2*float64(ji)
	for p := 0; p < nPreds; p++ {
		v := rng.Float64()
		s.Preds = append(s.Preds, []float64{v, 1 - v})
		target += 0.5 * v / float64(nPreds)
	}
	return s, target
}

func TestLearnsSetFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var samples []*Sets
	var y []float64
	for i := 0; i < 3000; i++ {
		s, target := synthSample(rng)
		samples = append(samples, s)
		y = append(y, target)
	}
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.Epochs = 30
	m, err := Train(samples, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var s float64
	n := 300
	for i := 0; i < n; i++ {
		sample, target := synthSample(rng)
		diff := m.Predict(sample) - target
		s += diff * diff
	}
	if got := s / float64(n); got > 0.01 {
		t.Errorf("test MSE = %v, want < 0.01", got)
	}
}

func TestVariableSetSizes(t *testing.T) {
	// The model must accept any number of elements per set at predict time.
	rng := rand.New(rand.NewSource(2))
	var samples []*Sets
	var y []float64
	for i := 0; i < 200; i++ {
		s, target := synthSample(rng)
		samples = append(samples, s)
		y = append(y, target)
	}
	cfg := DefaultConfig()
	cfg.Epochs = 2
	m, err := Train(samples, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	big := &Sets{
		Tables: [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}},
		Joins:  [][]float64{{1, 0}, {0, 1}},
		Preds:  [][]float64{{0.1, 0.9}, {0.5, 0.5}, {0.9, 0.1}, {0.3, 0.7}},
	}
	if p := m.Predict(big); math.IsNaN(p) || math.IsInf(p, 0) {
		t.Errorf("prediction on larger sets not finite: %v", p)
	}
}

func TestPoolingIsOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var samples []*Sets
	var y []float64
	for i := 0; i < 100; i++ {
		s, target := synthSample(rng)
		samples = append(samples, s)
		y = append(y, target)
	}
	cfg := DefaultConfig()
	cfg.Epochs = 2
	m, err := Train(samples, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := &Sets{
		Tables: [][]float64{{1, 0, 0}},
		Joins:  [][]float64{{1, 0}},
		Preds:  [][]float64{{0.2, 0.8}, {0.7, 0.3}},
	}
	b := &Sets{
		Tables: a.Tables,
		Joins:  a.Joins,
		Preds:  [][]float64{{0.7, 0.3}, {0.2, 0.8}},
	}
	if pa, pb := m.Predict(a), m.Predict(b); math.Abs(pa-pb) > 1e-12 {
		t.Errorf("set model is order sensitive: %v vs %v", pa, pb)
	}
}

func TestTrainValidation(t *testing.T) {
	good, target := synthSample(rand.New(rand.NewSource(4)))
	cfg := DefaultConfig()
	cfg.Epochs = 1
	if _, err := Train(nil, nil, cfg); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := Train([]*Sets{good}, nil, cfg); err == nil {
		t.Error("target length mismatch accepted")
	}
	bad := &Sets{Tables: [][]float64{{1}}, Joins: [][]float64{{1}}, Preds: nil}
	if _, err := Train([]*Sets{bad}, []float64{1}, cfg); err == nil {
		t.Error("empty pred set accepted (must be zero-padded)")
	}
	ragged := &Sets{
		Tables: good.Tables,
		Joins:  good.Joins,
		Preds:  [][]float64{{1, 2}, {1, 2, 3}},
	}
	if _, err := Train([]*Sets{good, ragged}, []float64{target, 1}, cfg); err == nil {
		t.Error("ragged pred vectors accepted")
	}
	badCfg := cfg
	badCfg.LearningRate = 0
	if _, err := Train([]*Sets{good}, []float64{target}, badCfg); err == nil {
		t.Error("bad config accepted")
	}
}

func TestDeterminismUnderSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var samples []*Sets
	var y []float64
	for i := 0; i < 100; i++ {
		s, target := synthSample(rng)
		samples = append(samples, s)
		y = append(y, target)
	}
	cfg := DefaultConfig()
	cfg.Epochs = 3
	cfg.Seed = 11
	m1, err := Train(samples, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(samples, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if m1.Predict(samples[i]) != m2.Predict(samples[i]) {
			t.Fatal("same seed must give identical models")
		}
	}
}

func TestNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s, target := synthSample(rng)
	cfg := Config{HiddenSet: 4, HiddenOut: 8, LearningRate: 0.01, Epochs: 1, BatchSize: 1}
	m, err := Train([]*Sets{s}, []float64{target}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Per set module: (in*4+4) + (4*4+4); table in=3, join in=2, pred in=2.
	want := (3*4 + 4 + 20) + (2*4 + 4 + 20) + (2*4 + 4 + 20) +
		(12*8 + 8) + (8*1 + 1)
	if got := m.NumParams(); got != want {
		t.Errorf("NumParams = %d, want %d", got, want)
	}
	if m.MemoryBytes() != want*8 {
		t.Errorf("MemoryBytes = %d, want %d", m.MemoryBytes(), want*8)
	}
}
