package linreg

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// Ridge regression is closed-form — no checkpoint to round-trip — so its
// resumable-training contract is just clean cancellation plus determinism:
// an aborted fit reports ErrCanceled and a restarted fit reproduces the
// uninterrupted solution exactly.
func TestTrainCtxCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	X := make([][]float64, 200)
	y := make([]float64, 200)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = 3*X[i][0] - X[i][1]
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := TrainCtx(ctx, X, y, DefaultConfig())
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("TrainCtx error = %v, want ErrCanceled wrapping context.Canceled", err)
	}

	a, err := Train(X, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainCtx(context.Background(), X, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Bias != b.Bias {
		t.Fatalf("restarted fit bias %v != %v", b.Bias, a.Bias)
	}
	for i := range a.W {
		if a.W[i] != b.W[i] {
			t.Fatalf("restarted fit weight %d: %v != %v", i, b.W[i], a.W[i])
		}
	}
}
