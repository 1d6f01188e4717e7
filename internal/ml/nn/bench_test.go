package nn

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
		y[i] = 3*row[0] - 2*row[1] + row[d-1]
	}
	return X, y
}

// BenchmarkTrainWorkers compares sequential (Workers=1) against parallel
// mini-batch training. Gradients reduce over fixed 8-sample shards in index
// order, so weights are bit-identical across worker counts; only wall-clock
// should differ on multi-core hardware.
func BenchmarkTrainWorkers(b *testing.B) {
	X, y := benchData(2_000, 100)
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Epochs = 5
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
