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

// BenchmarkTrainQFT measures a boot's fit as the daemon runs it — 2000
// labeled queries over the 20 000-row forest table, 32 entries per attribute,
// the default config and worker count — once per QFT, because where a QFT
// puts "no predicate" decides what the fit costs: split search accumulates
// only the entries below a feature's last bin, and accum-share is the share
// of the matrix that is. What BenchmarkTrainHistogram's dense uniform
// features measure is the other end, where nearly every entry is.
func BenchmarkTrainQFT(b *testing.B) {
	for _, bs := range bootMatrices(b, 20_000, 2_000) {
		cfg := DefaultConfig()
		share := float64(newBuilder(bs.X, cfg).entries) / float64(len(bs.X)*len(bs.X[0]))
		b.Run(bs.qft, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Train(bs.X, bs.y, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(share, "accum-share")
		})
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
