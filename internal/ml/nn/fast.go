package nn

import (
	"sync"

	"qfe/internal/ml/mlmath"
)

// Inference: instead of allocating one activation slice per layer per call,
// Predict borrows a per-goroutine scratch — two ping-pong buffers sized to
// the widest layer — from a sync.Pool and forwards each layer into the buffer
// the previous layer didn't write. Layer evaluation order, per-output
// accumulation order, and the in-place ReLU are identical to the allocating
// forward it replaced (predictReference in fast_test.go), so the outputs are
// bit-identical.

// predictScratch is one borrowed activation workspace.
type predictScratch struct {
	a, b []float64
}

// initFastPath sizes the scratch pool to the network's widest layer. Both
// places that build a layer stack call it as soon as the stack exists — the
// top of training (so validation-loop predictions use it too) and the decoder
// of a persisted model — so there is no Model without a pool.
func (m *Model) initFastPath() {
	maxW := 0
	for _, l := range m.layers {
		if l.Out > maxW {
			maxW = l.Out
		}
	}
	m.pool = &sync.Pool{New: func() any {
		return &predictScratch{a: make([]float64, maxW), b: make([]float64, maxW)}
	}}
}

// predictWith evaluates the network using the given scratch. Ping-pong
// indexing keeps every layer's destination disjoint from its input.
func (m *Model) predictWith(sc *predictScratch, x []float64) float64 {
	bufs := [2][]float64{sc.a, sc.b}
	act := x
	for li, l := range m.layers {
		dst := bufs[li&1][:l.Out]
		l.ForwardInto(act, dst)
		if li < len(m.layers)-1 {
			mlmath.ReLU(dst)
		}
		act = dst
	}
	return act[0]
}
