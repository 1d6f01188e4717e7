package gb

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// marshalNormalized serializes a model with the Workers knob zeroed so that
// two models trained under different parallelism compare structurally.
func marshalNormalized(t *testing.T, m *Model) string {
	t.Helper()
	clone := *m
	clone.Cfg.Workers = 0
	data, err := json.Marshal(&clone)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestTrainDeterministicAcrossWorkers: the tentpole guarantee for gb —
// training is bit-identical (same trees, thresholds, leaf values, split
// choices) for every Workers value, on both the histogram and the exact
// split paths.
func TestTrainDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	X, y := makeRegression(rng, 1200, 6)

	for _, exact := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Seed = 11
		cfg.NumTrees = 12
		cfg.ExactSplits = exact
		cfg.SubsampleRows, cfg.SubsampleCols = 0.8, 0.8

		cfg.Workers = 1
		seq, err := Train(X, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := marshalNormalized(t, seq)

		for _, workers := range []int{0, 2, 4, 8} {
			cfg.Workers = workers
			par, err := Train(X, y, cfg)
			if err != nil {
				t.Fatalf("exact=%v workers=%d: %v", exact, workers, err)
			}
			if got := marshalNormalized(t, par); got != want {
				t.Errorf("exact=%v workers=%d: trained model differs from sequential", exact, workers)
			}
		}
	}
}
