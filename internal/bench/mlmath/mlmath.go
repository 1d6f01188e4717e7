// Package mlmath provides the small dense-linear-algebra and optimization
// kernel shared by the harness's neural models (the feed-forward network of
// internal/bench/nn and the multi-set convolutional network of
// internal/bench/mscn): dense layers with manual backpropagation, ReLU, Adam,
// and deterministic weight initialization.
//
// Everything is float64 on flat slices — no external numeric libraries, per
// the reproduction's stdlib-only constraint.
package mlmath

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a fully connected layer y = W·x + b with W stored row-major as
// [out][in]. The layer owns its Adam state.
type Dense struct {
	In, Out int
	W       []float64 // len Out*In, row-major
	B       []float64 // len Out

	gradW []float64
	gradB []float64
	adamW *Adam
	adamB *Adam
}

// NewDense returns a dense layer with He-uniform initialization (suited to
// the ReLU activations used throughout) drawn from rng.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		In: in, Out: out,
		W:     make([]float64, out*in),
		B:     make([]float64, out),
		gradW: make([]float64, out*in),
		gradB: make([]float64, out),
	}
	limit := math.Sqrt(6.0 / float64(in))
	for i := range d.W {
		d.W[i] = (rng.Float64()*2 - 1) * limit
	}
	d.adamW = NewAdam(len(d.W))
	d.adamB = NewAdam(len(d.B))
	return d
}

// Forward computes W·x + b into a fresh slice.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("mlmath: dense forward: input dim %d, want %d", len(x), d.In))
	}
	y := make([]float64, d.Out)
	for o := 0; o < d.Out; o++ {
		row := d.W[o*d.In : (o+1)*d.In]
		sum := d.B[o]
		for i, w := range row {
			sum += w * x[i]
		}
		y[o] = sum
	}
	return y
}

// Backward accumulates gradients for the weights given the layer input x and
// the gradient dy of the loss w.r.t. the layer output, and returns the
// gradient w.r.t. x. Call ZeroGrad before each mini-batch and Step after.
func (d *Dense) Backward(x, dy []float64) []float64 {
	return d.BackwardInto(x, dy, d.gradW, d.gradB)
}

// BackwardInto is Backward accumulating into caller-provided buffers
// instead of the layer's own. Parallel trainers give each worker shard its
// own buffers so sample gradients accumulate without sharing, then reduce
// the shards in a fixed order (see AddGrad).
func (d *Dense) BackwardInto(x, dy, gradW, gradB []float64) []float64 {
	dx := make([]float64, d.In)
	for o := 0; o < d.Out; o++ {
		g := dy[o]
		if g == 0 {
			continue
		}
		row := d.W[o*d.In : (o+1)*d.In]
		grow := gradW[o*d.In : (o+1)*d.In]
		for i := range row {
			grow[i] += g * x[i]
			dx[i] += g * row[i]
		}
		gradB[o] += g
	}
	return dx
}

// AddGrad adds externally accumulated gradient buffers into the layer's
// own. Reducing worker shards with AddGrad in a fixed shard order makes the
// summation tree — and therefore the trained weights — independent of how
// many workers produced the shards.
func (d *Dense) AddGrad(gradW, gradB []float64) {
	for i, g := range gradW {
		d.gradW[i] += g
	}
	for i, g := range gradB {
		d.gradB[i] += g
	}
}

// ZeroGrad clears the accumulated gradients.
func (d *Dense) ZeroGrad() {
	for i := range d.gradW {
		d.gradW[i] = 0
	}
	for i := range d.gradB {
		d.gradB[i] = 0
	}
}

// Step applies one Adam update with the given learning rate, scaling the
// accumulated gradients by 1/batchSize.
func (d *Dense) Step(lr float64, batchSize int) {
	inv := 1.0 / float64(batchSize)
	for i := range d.gradW {
		d.gradW[i] *= inv
	}
	for i := range d.gradB {
		d.gradB[i] *= inv
	}
	d.adamW.Step(d.W, d.gradW, lr)
	d.adamB.Step(d.B, d.gradB, lr)
}

// NumParams returns the number of trainable parameters.
func (d *Dense) NumParams() int { return len(d.W) + len(d.B) }

// GradW returns the accumulated gradient of weight i; used by the numeric
// gradient checks in the test suites.
func (d *Dense) GradW(i int) float64 { return d.gradW[i] }

// GradB returns the accumulated gradient of bias i.
func (d *Dense) GradB(i int) float64 { return d.gradB[i] }

// ReLU applies max(0, x) in place and returns its argument.
func ReLU(x []float64) []float64 {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
	return x
}

// ReLUBackward zeroes the gradient entries where the pre-activation was
// non-positive, in place, and returns dy.
func ReLUBackward(pre, dy []float64) []float64 {
	for i, v := range pre {
		if v <= 0 {
			dy[i] = 0
		}
	}
	return dy
}

// Adam is the Adam optimizer state for one parameter slice
// (Kingma & Ba, 2015) with the standard defaults β1=0.9, β2=0.999, ε=1e-8.
type Adam struct {
	m, v []float64
	t    int
}

// NewAdam returns optimizer state for n parameters.
func NewAdam(n int) *Adam {
	return &Adam{m: make([]float64, n), v: make([]float64, n)}
}

// Step applies one Adam update to params given grads.
func (a *Adam) Step(params, grads []float64, lr float64) {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	a.t++
	c1 := 1 - math.Pow(beta1, float64(a.t))
	c2 := 1 - math.Pow(beta2, float64(a.t))
	for i, g := range grads {
		a.m[i] = beta1*a.m[i] + (1-beta1)*g
		a.v[i] = beta2*a.v[i] + (1-beta2)*g*g
		mhat := a.m[i] / c1
		vhat := a.v[i] / c2
		params[i] -= lr * mhat / (math.Sqrt(vhat) + eps)
	}
}

// MSEGrad returns the squared-error loss 0.5*(pred-target)^2 and its
// gradient w.r.t. pred.
func MSEGrad(pred, target float64) (loss, grad float64) {
	diff := pred - target
	return 0.5 * diff * diff, diff
}

// Shuffle permutes idx in place using rng; the canonical mini-batch
// reshuffle between epochs.
func Shuffle(idx []int, rng *rand.Rand) {
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
}
