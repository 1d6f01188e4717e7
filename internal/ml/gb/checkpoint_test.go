package gb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// trainInterrupted trains with checkpointing and cancels after the
// cancelAfter-th checkpoint, returning the last durable payload.
func trainInterrupted(t *testing.T, X [][]float64, y []float64, cfg Config, every, cancelAfter int) []byte {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last []byte
	seen := 0
	_, err := TrainCtx(ctx, X, y, cfg, &TrainOpts{
		CheckpointEvery: every,
		OnCheckpoint: func(payload []byte) error {
			last = append([]byte(nil), payload...)
			if seen++; seen == cancelAfter {
				cancel()
			}
			return nil
		},
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("interrupted TrainCtx error = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted TrainCtx error = %v, want to wrap context.Canceled", err)
	}
	if last == nil {
		t.Fatal("no checkpoint was emitted before cancellation")
	}
	return last
}

// TestCheckpointResumeBitIdentical is the per-model-kind round-trip of the
// resumable-training contract: save mid-training, cancel, resume from the
// payload, and the finished ensemble must match an uninterrupted run
// exactly (RNG replay makes the subsampling draws line up) — also when the
// job comes back on a different worker count, which changes nothing about
// the model and so must not be a reason to refuse the checkpoint.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X, y := makeRegression(rng, 600, 4)
	Xt, _ := makeRegression(rng, 100, 4)
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.NumTrees = 30
	cfg.Workers = 1
	ck := trainInterrupted(t, X, y, cfg, 5, 2) // canceled after tree 10

	for _, workers := range []int{1, 3} {
		cfg.Workers = workers
		baseline, err := Train(X, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := TrainCtx(context.Background(), X, y, cfg, &TrainOpts{Resume: ck})
		if err != nil {
			t.Fatalf("resume on %d workers a checkpoint taken on 1: %v", workers, err)
		}
		want, _ := json.Marshal(baseline)
		got, _ := json.Marshal(resumed)
		if string(want) != string(got) {
			t.Fatalf("workers=%d: resumed model differs from the uninterrupted ensemble", workers)
		}
		for i := range Xt {
			if baseline.Predict(Xt[i]) != resumed.Predict(Xt[i]) {
				t.Fatalf("workers=%d: prediction %d diverged after resume", workers, i)
			}
		}
	}
}

func TestCheckpointResumeRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X, y := makeRegression(rng, 300, 3)
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.NumTrees = 12
	ck := trainInterrupted(t, X, y, cfg, 4, 1)

	other := cfg
	other.LearningRate = cfg.LearningRate / 2
	if _, err := TrainCtx(context.Background(), X, y, other, &TrainOpts{Resume: ck}); err == nil {
		t.Error("resume with a different Config succeeded, want error")
	}
	if _, err := TrainCtx(context.Background(), X, y, cfg, &TrainOpts{Resume: []byte("garbage")}); err == nil {
		t.Error("resume from garbage succeeded, want error")
	}
}

func TestOnCheckpointErrorAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	X, y := makeRegression(rng, 300, 3)
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.NumTrees = 12
	boom := fmt.Errorf("disk on fire")
	_, err := TrainCtx(context.Background(), X, y, cfg, &TrainOpts{
		CheckpointEvery: 4,
		OnCheckpoint:    func([]byte) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("TrainCtx error = %v, want the OnCheckpoint error", err)
	}
}
