package mlmath

import (
	"math"
	"math/rand"
	"testing"
)

func TestDenseForwardKnown(t *testing.T) {
	d := &Dense{In: 2, Out: 2,
		W:     []float64{1, 2, 3, 4}, // rows: [1 2], [3 4]
		B:     []float64{10, 20},
		gradW: make([]float64, 4), gradB: make([]float64, 2),
	}
	y := d.Forward([]float64{1, 1})
	if y[0] != 13 || y[1] != 27 {
		t.Errorf("Forward = %v, want [13 27]", y)
	}
}

func TestDenseForwardDimPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	NewDense(3, 2, rand.New(rand.NewSource(1))).Forward([]float64{1})
}

// TestDenseGradientNumeric checks Backward against central finite
// differences for both weights and the input gradient.
func TestDenseGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDense(4, 3, rng)
	x := []float64{0.3, -0.7, 1.2, 0.1}
	target := []float64{0.5, -0.2, 0.9}

	loss := func() float64 {
		y := d.Forward(x)
		var s float64
		for i := range y {
			diff := y[i] - target[i]
			s += 0.5 * diff * diff
		}
		return s
	}

	// Analytic.
	d.ZeroGrad()
	y := d.Forward(x)
	dy := make([]float64, len(y))
	for i := range y {
		dy[i] = y[i] - target[i]
	}
	dx := d.Backward(x, dy)

	const h = 1e-6
	for i := range d.W {
		orig := d.W[i]
		d.W[i] = orig + h
		up := loss()
		d.W[i] = orig - h
		down := loss()
		d.W[i] = orig
		numeric := (up - down) / (2 * h)
		if math.Abs(numeric-d.GradW(i)) > 1e-5 {
			t.Fatalf("weight %d: numeric %v vs analytic %v", i, numeric, d.GradW(i))
		}
	}
	for i := range d.B {
		orig := d.B[i]
		d.B[i] = orig + h
		up := loss()
		d.B[i] = orig - h
		down := loss()
		d.B[i] = orig
		numeric := (up - down) / (2 * h)
		if math.Abs(numeric-d.GradB(i)) > 1e-5 {
			t.Fatalf("bias %d: numeric %v vs analytic %v", i, numeric, d.GradB(i))
		}
	}
	for i := range x {
		orig := x[i]
		x[i] = orig + h
		up := loss()
		x[i] = orig - h
		down := loss()
		x[i] = orig
		numeric := (up - down) / (2 * h)
		if math.Abs(numeric-dx[i]) > 1e-5 {
			t.Fatalf("input %d: numeric %v vs analytic %v", i, numeric, dx[i])
		}
	}
}

func TestReLU(t *testing.T) {
	x := []float64{-1, 0, 2}
	ReLU(x)
	if x[0] != 0 || x[1] != 0 || x[2] != 2 {
		t.Errorf("ReLU = %v", x)
	}
	pre := []float64{-1, 0.5, 0}
	dy := []float64{1, 1, 1}
	ReLUBackward(pre, dy)
	if dy[0] != 0 || dy[1] != 1 || dy[2] != 0 {
		t.Errorf("ReLUBackward = %v", dy)
	}
}

// TestAdamConvergesOnQuadratic: Adam must drive a quadratic bowl to its
// minimum.
func TestAdamConvergesOnQuadratic(t *testing.T) {
	params := []float64{5, -3}
	target := []float64{1, 2}
	a := NewAdam(2)
	grads := make([]float64, 2)
	for step := 0; step < 3000; step++ {
		for i := range params {
			grads[i] = params[i] - target[i]
		}
		a.Step(params, grads, 0.01)
	}
	for i := range params {
		if math.Abs(params[i]-target[i]) > 1e-2 {
			t.Errorf("param %d = %v, want %v", i, params[i], target[i])
		}
	}
}

// TestDenseLearnsLinearMap: a single dense layer trained with Adam must
// recover a linear function.
func TestDenseLearnsLinearMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDense(3, 1, rng)
	trueW := []float64{2, -1, 0.5}
	const bias = 0.3
	for step := 0; step < 4000; step++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		target := bias
		for i := range x {
			target += trueW[i] * x[i]
		}
		d.ZeroGrad()
		y := d.Forward(x)
		d.Backward(x, []float64{y[0] - target})
		d.Step(0.01, 1)
	}
	// Check on fresh points.
	var worst float64
	for trial := 0; trial < 50; trial++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		target := bias
		for i := range x {
			target += trueW[i] * x[i]
		}
		if e := math.Abs(d.Forward(x)[0] - target); e > worst {
			worst = e
		}
	}
	if worst > 0.05 {
		t.Errorf("worst-case error %v after training, want < 0.05", worst)
	}
}

func TestMSEGrad(t *testing.T) {
	loss, grad := MSEGrad(3, 1)
	if loss != 2 || grad != 2 {
		t.Errorf("MSEGrad = (%v, %v), want (2, 2)", loss, grad)
	}
}

func TestShuffleDeterministic(t *testing.T) {
	a := []int{0, 1, 2, 3, 4, 5}
	b := []int{0, 1, 2, 3, 4, 5}
	Shuffle(a, rand.New(rand.NewSource(9)))
	Shuffle(b, rand.New(rand.NewSource(9)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Shuffle not deterministic under same seed")
		}
	}
}

func TestStepAveragesBatchGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d1 := NewDense(2, 1, rng)
	// Clone d1's weights into d2 with fresh optimizer state.
	d2 := NewDense(2, 1, rand.New(rand.NewSource(3)))
	copy(d2.W, d1.W)
	copy(d2.B, d1.B)

	// d1: two identical samples in one batch. d2: the same sample once.
	x := []float64{1, 2}
	backOnce := func(d *Dense) {
		y := d.Forward(x)
		d.Backward(x, []float64{y[0] - 1})
	}
	d1.ZeroGrad()
	backOnce(d1)
	backOnce(d1)
	d1.Step(0.1, 2)

	d2.ZeroGrad()
	backOnce(d2)
	d2.Step(0.1, 1)

	for i := range d1.W {
		if math.Abs(d1.W[i]-d2.W[i]) > 1e-12 {
			t.Fatalf("batch averaging differs: %v vs %v", d1.W[i], d2.W[i])
		}
	}
}
