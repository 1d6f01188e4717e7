package mscn

import (
	"math/rand"
	"testing"

	"qfe/internal/ml/mlmath"
	"qfe/internal/testutil"
)

func randSets(rng *rand.Rand, td, jd, pd int) *Sets {
	vec := func(d int) []float64 {
		v := make([]float64, d)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	set := func(d, maxLen int) [][]float64 {
		n := 1 + rng.Intn(maxLen)
		out := make([][]float64, n)
		for i := range out {
			out[i] = vec(d)
		}
		return out
	}
	return &Sets{Tables: set(td, 3), Joins: set(jd, 2), Preds: set(pd, 4)}
}

func trainSmallMSCN(t *testing.T, seed int64) (*Model, []*Sets) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const td, jd, pd = 3, 2, 5
	samples := make([]*Sets, 120)
	y := make([]float64, len(samples))
	for i := range samples {
		samples[i] = randSets(rng, td, jd, pd)
		y[i] = rng.Float64() * 10
	}
	cfg := Config{HiddenSet: 8, HiddenOut: 16, LearningRate: 1e-3, Epochs: 3, BatchSize: 16, Seed: seed}
	m, err := Train(samples, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, samples
}

// predictReference is the pre-pooling Predict — four fresh slices per set
// element, the concat and the output activations — kept as the ground truth
// the pooled evaluation is held to.
func (m *Model) predictReference(s *Sets) float64 {
	if err := checkDims(s, m.tableDim, m.joinDim, m.predDim); err != nil {
		panic("mscn: " + err.Error())
	}
	tt := m.tableMod.forward(s.Tables)
	jt := m.joinMod.forward(s.Joins)
	pt := m.predMod.forward(s.Preds)
	concat := make([]float64, 0, 3*m.cfg.HiddenSet)
	concat = append(concat, tt.pooled...)
	concat = append(concat, jt.pooled...)
	concat = append(concat, pt.pooled...)
	act1 := mlmath.ReLU(m.out1.Forward(concat))
	return m.out2.Forward(act1)[0]
}

// TestPooledPredictBitIdentical: the pooled scratch path must reproduce the
// allocating reference bit for bit across varying set sizes.
func TestPooledPredictBitIdentical(t *testing.T) {
	m, _ := trainSmallMSCN(t, 51)
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 500; trial++ {
		s := randSets(rng, 3, 2, 5)
		if got, want := m.Predict(s), m.predictReference(s); got != want {
			t.Fatalf("trial %d: pooled %v != reference %v", trial, got, want)
		}
	}
}

// TestPredictZeroAllocs pins the pooled path's steady-state allocations.
func TestPredictZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation defeats sync.Pool; allocation counts are only meaningful in normal builds")
	}
	m, samples := trainSmallMSCN(t, 61)
	s := samples[0]
	if allocs := testing.AllocsPerRun(200, func() {
		m.Predict(s)
	}); allocs != 0 {
		t.Errorf("Predict allocs/op = %v, want 0", allocs)
	}
}
