package nn

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"
)

func synthXY(rng *rand.Rand, n, d int) (X [][]float64, y []float64) {
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		y[i] = 2*row[0] - row[1] + 0.5*row[0]*row[1]
	}
	return X, y
}

// TestCheckpointResumeBitIdentical: interrupt mid-training, resume from the
// last checkpoint, and the finished network — weights, Adam moments, and
// therefore every later update — must match an uninterrupted run exactly.
// Early stopping is exercised too: the checkpoint carries the best-snapshot
// state so a resumed run restores the same validation bookkeeping. The
// checkpoint is taken on one worker and resumed on one and on three: the
// worker count changes nothing about the weights, so it must not be a reason
// to refuse the checkpoint.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	X, y := synthXY(rng, 400, 5)
	Xt, _ := synthXY(rng, 50, 5)
	cfg := Config{
		Hidden:       []int{16, 8},
		LearningRate: 1e-3,
		Epochs:       12,
		BatchSize:    32,
		ValFraction:  0.2,
		Patience:     12,
		Seed:         4,
		Workers:      1,
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last []byte
	seen := 0
	_, err := TrainCtx(ctx, X, y, cfg, &TrainOpts{
		CheckpointEvery: 3,
		OnCheckpoint: func(payload []byte) error {
			last = append([]byte(nil), payload...)
			if seen++; seen == 2 { // canceled after epoch 6
				cancel()
			}
			return nil
		},
	})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted TrainCtx error = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if last == nil {
		t.Fatal("no checkpoint was emitted before cancellation")
	}

	for _, workers := range []int{1, 3} {
		cfg.Workers = workers
		baseline, err := Train(X, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := TrainCtx(context.Background(), X, y, cfg, &TrainOpts{Resume: last})
		if err != nil {
			t.Fatalf("resume on %d workers a checkpoint taken on 1: %v", workers, err)
		}
		want, _ := json.Marshal(baseline)
		got, _ := json.Marshal(resumed)
		if string(want) != string(got) {
			t.Fatalf("workers=%d: resumed network differs from the uninterrupted one", workers)
		}
		for i := range Xt {
			if baseline.Predict(Xt[i]) != resumed.Predict(Xt[i]) {
				t.Fatalf("workers=%d: prediction %d diverged after resume", workers, i)
			}
		}
	}
}

func TestCheckpointResumeRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	X, y := synthXY(rng, 200, 4)
	cfg := Config{Hidden: []int{8}, LearningRate: 1e-3, Epochs: 8, BatchSize: 32, Seed: 2}

	var last []byte
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := TrainCtx(ctx, X, y, cfg, &TrainOpts{
		CheckpointEvery: 2,
		OnCheckpoint: func(payload []byte) error {
			last = append([]byte(nil), payload...)
			cancel()
			return nil
		},
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("TrainCtx error = %v, want ErrCanceled", err)
	}

	other := cfg
	other.Hidden = []int{8, 8}
	if _, err := TrainCtx(context.Background(), X, y, other, &TrainOpts{Resume: last}); err == nil {
		t.Error("resume with a different Config succeeded, want error")
	}
	if _, err := TrainCtx(context.Background(), X, y, cfg, &TrainOpts{Resume: []byte("{")}); err == nil {
		t.Error("resume from garbage succeeded, want error")
	}
}
