package mscn

import "qfe/internal/ml/mlmath"

// Inference: Predict borrows one scratch — per-element hidden buffers, the
// pooled concatenation, and the output MLP activations — from a sync.Pool
// instead of allocating four slices per set element plus the concat and
// output activations on every call. Evaluation order matches the allocating
// forward it replaced (predictReference in fast_test.go; training's backprop
// still runs that forward, because it needs the intermediates) exactly —
// per-element accumulate, then one scale by 1/len, then the output MLP — so
// outputs are bit-identical.

// inferScratch is one borrowed inference workspace.
type inferScratch struct {
	h1, h2 []float64 // per-element set-module activations (HiddenSet wide)
	pooled []float64 // concatenated pooled set outputs (3*HiddenSet)
	o1     []float64 // output-MLP hidden activation (HiddenOut)
	o2     []float64 // final output (1)
}

// forwardInto average-pools the set convolution into dst (HiddenSet wide,
// fully overwritten), using h1/h2 as per-element ping-pong hidden buffers.
// Accumulation and the trailing 1/len scale mirror forward exactly.
func (s *setModule) forwardInto(elems [][]float64, dst, h1, h2 []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for _, e := range elems {
		s.l1.ForwardInto(e, h1)
		mlmath.ReLU(h1)
		s.l2.ForwardInto(h1, h2)
		mlmath.ReLU(h2)
		for i, v := range h2 {
			dst[i] += v
		}
	}
	inv := 1.0 / float64(len(elems))
	for i := range dst {
		dst[i] *= inv
	}
}

// predictWith evaluates the network using the given scratch.
func (m *Model) predictWith(sc *inferScratch, s *Sets) float64 {
	h := m.cfg.HiddenSet
	m.tableMod.forwardInto(s.Tables, sc.pooled[0:h], sc.h1, sc.h2)
	m.joinMod.forwardInto(s.Joins, sc.pooled[h:2*h], sc.h1, sc.h2)
	m.predMod.forwardInto(s.Preds, sc.pooled[2*h:3*h], sc.h1, sc.h2)
	m.out1.ForwardInto(sc.pooled, sc.o1)
	mlmath.ReLU(sc.o1)
	m.out2.ForwardInto(sc.o1, sc.o2)
	return sc.o2[0]
}
