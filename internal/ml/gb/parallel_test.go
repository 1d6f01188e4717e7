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
// choices) for every Workers value.
func TestTrainDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	X, y := makeRegression(rng, 1200, 6)

	cfg := DefaultConfig()
	cfg.Seed = 11
	cfg.NumTrees = 12
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
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := marshalNormalized(t, par); got != want {
			t.Errorf("workers=%d: trained model differs from sequential", workers)
		}
	}
}
