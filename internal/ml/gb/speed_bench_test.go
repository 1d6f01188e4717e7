package gb

import (
	"math/rand"
	"testing"
)

// The flat-vs-reference pair below measures single-query inference the way
// serving sees it: a different feature vector per call (X[i%len(X)], as in
// BenchmarkPredict), so each walk takes a different path through the forest
// and the layouts' cache behavior — not a warmed-up single path — is what's
// being compared.

func predictBenchModel(b *testing.B) (*Model, [][]float64, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	X, y := randRegression(rng, 2000, 200)
	cfg := DefaultConfig()
	cfg.NumTrees = 100
	m, err := Train(X, y, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m, X, y
}

func BenchmarkPredictFlat(b *testing.B) {
	m, X, _ := predictBenchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(X[i%len(X)])
	}
}

func BenchmarkPredictReference(b *testing.B) {
	m, X, y := predictBenchModel(b)
	base, trees := fitTrees(b, X, y, m.Cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictReference(trees, base, m.Cfg.LearningRate, X[i%len(X)])
	}
}
