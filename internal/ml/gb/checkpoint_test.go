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

// TestResumeFromFormat1Checkpoint: a checkpoint written before the flat
// forest was the model's only form stores the arenas of the trees fit so far.
// It decodes, packs, and resumes into the forest of an uninterrupted run,
// node for node, on any worker count.
func TestResumeFromFormat1Checkpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X, y := makeRegression(rng, 600, 4)
	cfg := DefaultConfig()
	cfg.Seed, cfg.NumTrees = 3, 30
	first := cfg
	first.NumTrees = 10
	base, trees := fitTrees(t, X, y, first)
	ck := format1(t, cfg, base, 4, trees)
	for _, workers := range []int{1, 3} {
		cfg.Workers = workers
		baseline, err := Train(X, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := TrainCtx(context.Background(), X, y, cfg, &TrainOpts{Resume: ck})
		if err != nil {
			t.Fatalf("workers=%d: resume from a format-1 checkpoint: %v", workers, err)
		}
		if !sameForest(resumed, baseline) || resumed.Base != baseline.Base {
			t.Fatalf("workers=%d: resumed forest differs from the uninterrupted one", workers)
		}
	}
}

// TestCheckpointResumeRejectsMismatch: a checkpoint this fit cannot continue
// is refused as ErrBadCheckpoint, whatever is wrong with it — so a caller can
// tell it from a fit that failed on its own and start over without it.
func TestCheckpointResumeRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X, y := makeRegression(rng, 300, 3)
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.NumTrees = 12
	ck := trainInterrupted(t, X, y, cfg, 4, 1)

	other := cfg
	other.LearningRate = cfg.LearningRate / 2
	shifted := append([]float64(nil), y...)
	shifted[0]++
	var doc map[string]json.RawMessage
	err := json.Unmarshal(ck, &doc)
	if err != nil {
		t.Fatal(err)
	}
	var roots []int32
	if err := json.Unmarshal(doc["roots"], &roots); err != nil {
		t.Fatal(err)
	}
	roots[0] = 1 // the forest no longer starts at node 0: Validate refuses it
	if doc["roots"], err = json.Marshal(roots); err != nil {
		t.Fatal(err)
	}
	misrooted, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		y    []float64
		cfg  Config
		ck   []byte
	}{
		{"another Config", y, other, ck},
		{"other targets", shifted, cfg, ck},
		{"garbage", y, cfg, []byte("garbage")},
		{"a forest Validate refuses", y, cfg, misrooted},
	} {
		_, err := TrainCtx(context.Background(), X, tc.y, tc.cfg, &TrainOpts{Resume: tc.ck})
		if !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("resume from %s: error %v, want ErrBadCheckpoint", tc.name, err)
		}
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
