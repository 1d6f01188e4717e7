package gb

import (
	"fmt"
	"math"
)

// This file implements compiled inference: the trained forest is flattened
// once — at the end of training or at decode time — into a single contiguous
// packed-node layout, and Predict walks that layout iteratively instead of
// pointer-chasing per-tree node slices. The serialization format is unchanged
// (Model.Trees remains the only persisted representation); the flat form is a
// derived, in-memory artifact.
//
// The compiled walk is bit-identical to the per-tree walk it replaced (kept
// as predictReference in flat_test.go): node traversal takes the same
// comparisons against the same thresholds, and the ensemble accumulates in
// the same order with the same FMA-free expression (out += LearningRate *
// leaf, tree by tree), so serving caches, canaries, and replay reports see
// byte-for-byte identical estimates.

// flatNode is one packed node of the compiled layout. Internal nodes carry
// feat >= 0, the split threshold in thr, and their left child's absolute id
// in left; the right child always sits at left+1 (the compiler places child
// pairs adjacently). Leaves carry feat == -1 and their value in thr.
//
// Descent touches every field of exactly one node per step, so the layout is
// packed per node rather than per field: 16 bytes (vs 40 in the []*tree
// arena form), four nodes per cache line, one line per visited node. A
// struct-of-arrays split would spread each visit over four lines — worse,
// not better, for a pointer-free random walk.
type flatNode struct {
	thr  float64
	feat int32
	left int32
}

// flatNodeBytes is the per-node cost of the compiled layout: threshold or
// leaf value (8), feature id (4), left-child id (4).
const flatNodeBytes = 16

// flatForest is the compiled form of a trained ensemble: all trees share one
// node array; roots[t] is tree t's root id.
type flatForest struct {
	nodes []flatNode
	roots []int32
}

// compileForest flattens trees into a flatForest. Nodes are re-laid in
// breadth-first order with each internal node's children adjacent (right =
// left+1) — the id permutation changes nothing about which comparisons run,
// and BFS keeps every tree's top levels, the part every walk crosses, packed
// in its first few cache lines. A forest that is empty or structurally unfit
// (nil/empty trees, feature ids outside int32, child ids that do not form a
// tree) is an error naming the tree: there is no second interpreter to fall
// back to, so Validate passes the error on to loaders.
func compileForest(trees []*tree) (*flatForest, error) {
	total := 0
	for ti, t := range trees {
		if t == nil || len(t.Nodes) == 0 {
			return nil, fmt.Errorf("gb: tree %d is empty", ti)
		}
		total += len(t.Nodes)
	}
	if total == 0 {
		return nil, fmt.Errorf("gb: model has no trees")
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("gb: %d nodes, want at most %d", total, math.MaxInt32)
	}
	f := &flatForest{
		nodes: make([]flatNode, total),
		roots: make([]int32, len(trees)),
	}
	next := int32(0)
	var queue []int32 // old ids, reused across trees
	for ti, t := range trees {
		f.roots[ti] = next
		limit := next + int32(len(t.Nodes))
		// slot[old] is the compiled id assigned to old, -1 until assigned.
		// The sentinel doubles as the structural check: compile runs on
		// decoded bytes before Validate, so a corrupt tree (child id out of
		// range, two parents claiming one child, an edge back to an assigned
		// node) must be refused, never index out of bounds or build a layout
		// that walks differently than Trees.
		slot := make([]int32, len(t.Nodes))
		for i := range slot {
			slot[i] = -1
		}
		slot[0] = next
		next++
		queue = append(queue[:0], 0)
		for len(queue) > 0 {
			old := queue[0]
			queue = queue[1:]
			n := &t.Nodes[old]
			j := slot[old]
			if n.Leaf {
				f.nodes[j] = flatNode{thr: n.Value, feat: -1}
				continue
			}
			if n.Feature < 0 || n.Feature > math.MaxInt32 {
				return nil, fmt.Errorf("gb: tree %d node %d: feature %d out of range", ti, old, n.Feature)
			}
			l, r := n.Left, n.Right
			if next+2 > limit || l < 1 || int(l) >= len(t.Nodes) || r < 1 || int(r) >= len(t.Nodes) ||
				slot[l] != -1 || slot[r] != -1 || l == r {
				return nil, fmt.Errorf("gb: tree %d node %d: children %d and %d do not form a tree (out of range, or already another node's child)", ti, old, l, r)
			}
			slot[l] = next
			slot[r] = next + 1
			f.nodes[j] = flatNode{thr: n.Threshold, feat: int32(n.Feature), left: next}
			next += 2
			queue = append(queue, l, r)
		}
		// Unreached trailing slots (nodes no edge points at) stay zeroed and
		// unreachable from the walk; account for them so the next tree's ids
		// start where this tree's block ends.
		next = limit
	}
	return f, nil
}

// predictLanes is how many trees predict walks in lockstep. One tree's walk
// is a serial chain of dependent loads — the CPU cannot start fetching a
// child before the parent arrives — so a naive tree-by-tree loop is bound by
// memory latency, not bandwidth. Interleaving W trees keeps W independent
// chains in flight per pass, which is where the compiled walk's speedup
// actually comes from; the packed layout keeps each of those loads to one
// cache line.
const predictLanes = 8

// predict walks every tree of the flat layout and accumulates the ensemble
// in training order: out = base + Σ lr·leaf, the same FMA-free expression as
// the per-tree walk, so the result is bit-identical — lanes only reorder
// the loads, never the accumulation, because leaf ids are collected per lane
// and summed in tree index order after the group finishes. The node
// comparison matches tree.predict exactly: x[feat] <= threshold goes left,
// everything else (including NaN) goes right, with the right child as the
// default so the step compiles to a conditional move.
func (f *flatForest) predict(x []float64, base, lr float64) float64 {
	nodes := f.nodes
	roots := f.roots
	out := base
	var idx [predictLanes]int32
	for t := 0; t < len(roots); t += predictLanes {
		w := len(roots) - t
		if w > predictLanes {
			w = predictLanes
		}
		copy(idx[:w], roots[t:t+w])
		for active := w; active > 0; {
			active = 0
			for l := 0; l < w; l++ {
				n := nodes[idx[l]]
				if n.feat < 0 {
					continue
				}
				next := n.left + 1
				if x[n.feat] <= n.thr {
					next = n.left
				}
				idx[l] = next
				active++
			}
		}
		for l := 0; l < w; l++ {
			out += lr * nodes[idx[l]].thr
		}
	}
	return out
}

// memoryBytes is the compiled layout's resident size: the packed node array
// plus one root offset per tree.
func (f *flatForest) memoryBytes() int {
	return len(f.nodes)*flatNodeBytes + len(f.roots)*4
}

// compile (re)builds the model's flat forest from its serialized tree form.
// It runs at the end of training and after decoding, so any model obtained
// from Train/TrainCtx, or from UnmarshalJSON and accepted by Validate,
// predicts through it.
func (m *Model) compile() error {
	f, err := compileForest(m.Trees)
	m.flat = f
	return err
}
