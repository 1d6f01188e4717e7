// Package linreg implements ridge-regularized linear regression — one of
// the "simpler models" the paper reports having tested and excluded because
// "their estimates are worse by a significant factor" (end of Section 2.2).
// It is included so that claim is reproducible: the harness's model-zoo
// comparison shows linear regression trailing GB and NN by a wide margin on
// every QFT.
//
// Fitting solves the ridge normal equations (XᵀX + λI)w = Xᵀy by Cholesky
// decomposition, all in float64 on the stdlib.
package linreg

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// ErrCanceled reports that fitting was aborted by its context; the returned
// error also wraps the context's own error.
var ErrCanceled = errors.New("linreg: training canceled")

// Config holds the ridge hyperparameters.
type Config struct {
	// Lambda is the L2 regularization strength. Must be > 0 (it also keeps
	// the normal equations well conditioned).
	Lambda float64
}

// DefaultConfig uses a mild ridge penalty.
func DefaultConfig() Config { return Config{Lambda: 1e-3} }

// Model is a fitted linear regressor y = w·x + b.
type Model struct {
	W    []float64
	Bias float64
}

// Train fits the model on row-major X and targets y.
func Train(X [][]float64, y []float64, cfg Config) (*Model, error) {
	return TrainCtx(context.Background(), X, y, cfg)
}

// TrainCtx is Train with cancellation, checked periodically during the
// normal-equation accumulation (the only loop whose cost grows with the
// sample count). The closed-form solve has no intermediate state worth
// checkpointing: an aborted fit simply restarts.
func TrainCtx(ctx context.Context, X [][]float64, y []float64, cfg Config) (*Model, error) {
	n := len(X)
	if n == 0 {
		return nil, fmt.Errorf("linreg: no training samples")
	}
	if len(y) != n {
		return nil, fmt.Errorf("linreg: %d samples but %d targets", n, len(y))
	}
	d := len(X[0])
	if d == 0 {
		return nil, fmt.Errorf("linreg: zero-dimensional features")
	}
	if cfg.Lambda <= 0 {
		return nil, fmt.Errorf("linreg: Lambda = %v, want > 0", cfg.Lambda)
	}
	for i, row := range X {
		if len(row) != d {
			return nil, fmt.Errorf("linreg: sample %d has %d features, want %d", i, len(row), d)
		}
	}

	// Augment with a bias column: solve over d+1 coefficients.
	k := d + 1
	// A = XᵀX + λI (bias unregularized), b = Xᵀy.
	A := make([]float64, k*k)
	bvec := make([]float64, k)
	row := make([]float64, k)
	for i := 0; i < n; i++ {
		if i%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("%w: %w", ErrCanceled, err)
			}
		}
		copy(row, X[i])
		row[d] = 1 // bias term
		for a := 0; a < k; a++ {
			va := row[a]
			if va == 0 {
				continue
			}
			bvec[a] += va * y[i]
			for c := a; c < k; c++ {
				A[a*k+c] += va * row[c]
			}
		}
	}
	// Mirror the upper triangle and add the ridge.
	for a := 0; a < k; a++ {
		for c := 0; c < a; c++ {
			A[a*k+c] = A[c*k+a]
		}
	}
	for a := 0; a < d; a++ { // bias (index d) stays unregularized
		A[a*k+a] += cfg.Lambda * float64(n)
	}

	w, err := solveCholesky(A, bvec, k)
	if err != nil {
		return nil, err
	}
	return &Model{W: w[:d], Bias: w[d]}, nil
}

// Predict returns w·x + b.
func (m *Model) Predict(x []float64) float64 {
	if len(x) != len(m.W) {
		panic(fmt.Sprintf("linreg: input dim %d, model dim %d", len(x), len(m.W)))
	}
	out := m.Bias
	for i, w := range m.W {
		out += w * x[i]
	}
	return out
}

// MemoryBytes reports the model size (8 bytes per coefficient).
func (m *Model) MemoryBytes() int { return (len(m.W) + 1) * 8 }

// solveCholesky solves A w = b for symmetric positive-definite A (k x k,
// row-major) via in-place Cholesky factorization.
func solveCholesky(A, b []float64, k int) ([]float64, error) {
	// Factor A = L Lᵀ.
	L := make([]float64, k*k)
	for i := 0; i < k; i++ {
		for j := 0; j <= i; j++ {
			sum := A[i*k+j]
			for p := 0; p < j; p++ {
				sum -= L[i*k+p] * L[j*k+p]
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("linreg: matrix not positive definite (pivot %d = %v)", i, sum)
				}
				L[i*k+i] = math.Sqrt(sum)
			} else {
				L[i*k+j] = sum / L[j*k+j]
			}
		}
	}
	// Forward substitution: L z = b.
	z := make([]float64, k)
	for i := 0; i < k; i++ {
		sum := b[i]
		for p := 0; p < i; p++ {
			sum -= L[i*k+p] * z[p]
		}
		z[i] = sum / L[i*k+i]
	}
	// Back substitution: Lᵀ w = z.
	w := make([]float64, k)
	for i := k - 1; i >= 0; i-- {
		sum := z[i]
		for p := i + 1; p < k; p++ {
			sum -= L[p*k+i] * w[p]
		}
		w[i] = sum / L[i*k+i]
	}
	return w, nil
}
