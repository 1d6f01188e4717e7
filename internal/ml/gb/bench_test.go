package gb

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchData(n, d int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(1))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		y[i] = 3*row[0] - row[1]*2 + row[d-1]
	}
	return X, y
}

// BenchmarkTrainHistogram measures histogram-split training on a
// feature-vector-sized problem (2000 samples x 200 dims).
func BenchmarkTrainHistogram(b *testing.B) {
	X, y := benchData(2_000, 200)
	cfg := DefaultConfig()
	cfg.NumTrees = 30
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(X, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainQFT measures training at the daemon's shape: 2000 queries,
// the 408 entries the complex QFT makes of the forest table at 32 entries
// per attribute, the default config, and — what BenchmarkTrainHistogram's
// dense uniform features hide — columns where most rows share one value, so
// that a histogram's additions queue up behind one bin.
func BenchmarkTrainQFT(b *testing.B) {
	X, y := qftLike(rand.New(rand.NewSource(1)), 2_000, 408)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(X, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainExact measures the exact-split ablation path at a reduced
// size (it is the slow reference).
func BenchmarkTrainExact(b *testing.B) {
	X, y := benchData(500, 50)
	cfg := DefaultConfig()
	cfg.NumTrees = 10
	cfg.ExactSplits = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(X, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict measures single-vector inference latency, the per-query
// cost a query optimizer would pay.
func BenchmarkPredict(b *testing.B) {
	X, y := benchData(2_000, 200)
	cfg := DefaultConfig()
	cfg.NumTrees = 100
	m, err := Train(X, y, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(X[i%len(X)])
	}
}

// BenchmarkTrainWorkers compares sequential (Workers=1) against parallel
// histogram training on the same problem. Results are bit-identical across
// worker counts; only wall-clock should differ on multi-core hardware.
func BenchmarkTrainWorkers(b *testing.B) {
	X, y := benchData(2_000, 200)
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NumTrees = 30
			cfg.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Train(X, y, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
