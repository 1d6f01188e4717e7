package nn

import (
	"math/rand"
	"testing"
)

// weightsOf flattens every layer's parameters for exact comparison.
func weightsOf(m *Model) []float64 {
	var out []float64
	for _, l := range m.layers {
		out = append(out, l.W...)
		out = append(out, l.B...)
	}
	return out
}

// TestTrainDeterministicAcrossWorkers: the tentpole guarantee for nn —
// trained weights are bit-identical for every Workers value, because
// per-sample gradients accumulate within fixed 8-sample shards and the
// shards reduce in index order regardless of scheduling.
func TestTrainDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(x []float64) float64 { return x[0]*x[1] - 0.5*x[2] }
	X, y := makeData(rng, 1500, f)

	cfg := DefaultConfig()
	cfg.Seed = 21
	cfg.Epochs = 8
	cfg.Workers = 1
	seq, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := weightsOf(seq)

	for _, workers := range []int{0, 2, 4, 8} {
		cfg.Workers = workers
		par, err := Train(X, y, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := weightsOf(par)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d params, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: weight %d = %v, sequential %v — gradient reduction depends on scheduling",
					workers, i, got[i], want[i])
			}
		}
	}
}
