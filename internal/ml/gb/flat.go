package gb

import (
	"encoding/json"
	"fmt"
	"math"
)

// This file is the model's one representation: all trees packed into a
// single contiguous node array, which Predict walks iteratively. The fit
// grows each tree in an arena (tree.go) and appends it here the moment it is
// finished; the arena is then garbage. Snapshots store the packed nodes as
// they are (format 2); a format-1 payload, which stored the arenas, is packed
// once on decode.
//
// The walk is bit-identical to the per-tree arena walk it replaced (kept as
// predictReference in flat_test.go): node traversal takes the same
// comparisons against the same thresholds, and the ensemble accumulates in
// the same order with the same FMA-free expression (out += LearningRate *
// leaf, tree by tree), so serving caches, canaries, and replay reports see
// byte-for-byte identical estimates.

// flatNode is one packed node. Internal nodes carry feat >= 0, the split
// threshold in thr, and their left child's absolute id in left; the right
// child always sits at left+1 (children are packed as adjacent pairs). Leaves
// carry feat == -1 and their value in thr.
//
// Descent touches every field of exactly one node per step, so the layout is
// packed per node rather than per field: 16 bytes (vs 40 in the arena form),
// four nodes per cache line, one line per visited node. A struct-of-arrays
// split would spread each visit over four lines — worse, not better, for a
// pointer-free random walk.
type flatNode struct {
	thr  float64
	feat int32
	left int32
}

// flatNodeBytes is the per-node cost of the packed layout: threshold or leaf
// value (8), feature id (4), left-child id (4).
const flatNodeBytes = 16

// flatForest is a trained ensemble: all trees share one node array, and tree
// t is the block that starts at roots[t] and ends where the next one starts.
type flatForest struct {
	nodes []flatNode
	roots []int32
}

// appendTree packs t onto the forest as its next tree. Nodes are laid in
// breadth-first order with each internal node's children adjacent (right =
// left+1) — the id permutation changes nothing about which comparisons run,
// and BFS keeps every tree's top levels, the part every walk crosses, packed
// in its first few cache lines. Only nodes reached from the root are packed,
// so every slot of the forest is reachable. A tree that is not one (empty,
// a feature id outside int32, child ids out of range or claimed by two
// parents) is an error naming it and its node, and leaves f as it was.
func (f *flatForest) appendTree(t *tree) error {
	ti, base := len(f.roots), len(f.nodes)
	fail := func(format string, args ...any) error {
		f.nodes = f.nodes[:base]
		return fmt.Errorf("gb: tree %d"+format, append([]any{ti}, args...)...)
	}
	if t == nil || len(t.Nodes) == 0 {
		return fail(" is empty")
	}
	if base+len(t.Nodes) > math.MaxInt32 {
		return fail(": %d nodes after %d, want at most %d in all", len(t.Nodes), base, math.MaxInt32)
	}
	// slot[old] is the packed id assigned to arena node old, -1 until then.
	// An arena from a decoded payload is untrusted, so the sentinel doubles
	// as the structural check: a child assigned twice is refused, never
	// packed into a layout that walks differently than the arena.
	slot := make([]int32, len(t.Nodes))
	for i := range slot {
		slot[i] = -1
	}
	slot[0] = int32(base)
	f.nodes = append(f.nodes, flatNode{})
	for queue := []int32{0}; len(queue) > 0; queue = queue[1:] {
		old := queue[0]
		n := &t.Nodes[old]
		j := slot[old]
		if n.Leaf {
			f.nodes[j] = flatNode{thr: n.Value, feat: -1}
			continue
		}
		if n.Feature < 0 || n.Feature > math.MaxInt32 {
			return fail(" node %d: feature %d out of range", old, n.Feature)
		}
		l, r := n.Left, n.Right
		if l < 1 || int(l) >= len(t.Nodes) || r < 1 || int(r) >= len(t.Nodes) ||
			slot[l] != -1 || slot[r] != -1 || l == r {
			return fail(" node %d: children %d and %d do not form a tree (out of range, or already another node's child)", old, l, r)
		}
		next := int32(len(f.nodes))
		slot[l], slot[r] = next, next+1
		f.nodes[j] = flatNode{thr: n.Threshold, feat: int32(n.Feature), left: next}
		f.nodes = append(f.nodes, flatNode{}, flatNode{})
		queue = append(queue, l, r)
	}
	f.roots = append(f.roots, int32(base))
	return nil
}

// compileForest packs format-1 arenas, tree by tree.
func compileForest(trees []*tree) (flatForest, error) {
	var f flatForest
	for _, t := range trees {
		if err := f.appendTree(t); err != nil {
			return flatForest{}, err
		}
	}
	return f, nil
}

// trim reallocates the forest at its exact size: a fit appends to it tree by
// tree, and the spare capacity append leaves would otherwise be held for as
// long as the model is served.
func (f *flatForest) trim() {
	f.nodes = append([]flatNode(nil), f.nodes...)
	f.roots = append([]int32(nil), f.roots...)
}

// validate checks what the walk relies on, tree by tree: the first tree
// starts at node 0 and each later one strictly after its predecessor; within
// a tree's block, an internal node reads a feature in [0, dim) against a
// non-NaN threshold and has both children after itself and inside the block;
// a leaf has feat -1 and a finite value. Ids then strictly increase along any
// walk and stay in its tree's block, so predict terminates within a block's
// size of steps per tree and never indexes out of bounds.
func (f *flatForest) validate(dim int) error {
	if len(f.roots) == 0 {
		return fmt.Errorf("gb: model has no trees")
	}
	if len(f.nodes) > math.MaxInt32 {
		return fmt.Errorf("gb: %d nodes, want at most %d", len(f.nodes), math.MaxInt32)
	}
	if f.roots[0] != 0 {
		return fmt.Errorf("gb: tree 0 starts at node %d, want 0", f.roots[0])
	}
	for t, lo := range f.roots {
		hi := len(f.nodes)
		if t+1 < len(f.roots) {
			hi = int(f.roots[t+1])
		}
		if int(lo) >= hi {
			return fmt.Errorf("gb: tree %d spans nodes [%d, %d), want roots that strictly increase below the node count %d", t, lo, hi, len(f.nodes))
		}
		for j := int(lo); j < hi; j++ {
			n, k := f.nodes[j], j-int(lo)
			switch {
			case n.feat == -1:
				if math.IsNaN(n.thr) || math.IsInf(n.thr, 0) {
					return fmt.Errorf("gb: tree %d node %d: leaf value %v is not finite", t, k, n.thr)
				}
			case n.feat < 0 || int(n.feat) >= dim:
				return fmt.Errorf("gb: tree %d node %d: feature %d out of range [0, %d)", t, k, n.feat, dim)
			case math.IsNaN(n.thr):
				return fmt.Errorf("gb: tree %d node %d: NaN threshold", t, k)
			case int(n.left) <= j || int(n.left)+1 >= hi:
				return fmt.Errorf("gb: tree %d node %d: children at %d and %d, want both in (%d, %d)", t, k, n.left, int(n.left)+1, j, hi)
			}
		}
	}
	return nil
}

// predictLanes is how many trees predict walks in lockstep. One tree's walk
// is a serial chain of dependent loads — the CPU cannot start fetching a
// child before the parent arrives — so a naive tree-by-tree loop is bound by
// memory latency, not bandwidth. Interleaving W trees keeps W independent
// chains in flight per pass, which is where the packed walk's speedup
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

// memoryBytes is the packed layout's resident size: the node array plus one
// root offset per tree.
func (f *flatForest) memoryBytes() int {
	return len(f.nodes)*flatNodeBytes + len(f.roots)*4
}

// wireModel is a model's JSON form. Format 2 stores the forest as parallel
// node arrays — feat, thr and left are one node's fields, roots each tree's
// first node — which encode the packed nodes exactly and decode back into
// them. Format 1 stored the fit's arenas under "trees"; such a snapshot
// (written before the arenas stopped outliving the fit) decodes into V1 and
// is packed once.
type wireModel struct {
	Cfg   Config    `json:"cfg"`
	Base  float64   `json:"base"` // the constant c of Equation 5
	Dim   int       `json:"dim"`
	Roots []int32   `json:"roots"`
	Feat  []int32   `json:"feat"`
	Thr   []float64 `json:"thr"`
	Left  []int32   `json:"left"`
	V1    []*tree   `json:"trees,omitempty"`
}

// MarshalJSON writes the model in format 2.
func (m Model) MarshalJSON() ([]byte, error) {
	w := wireModel{
		Cfg: m.Cfg, Base: m.Base, Dim: m.Dim, Roots: m.flat.roots,
		Feat: make([]int32, len(m.flat.nodes)),
		Thr:  make([]float64, len(m.flat.nodes)),
		Left: make([]int32, len(m.flat.nodes)),
	}
	for j, n := range m.flat.nodes {
		w.Feat[j], w.Thr[j], w.Left[j] = n.feat, n.thr, n.left
	}
	return json.Marshal(&w)
}

// UnmarshalJSON restores a model of either format. It checks only what
// packing the nodes needs — arrays of one length, or format-1 arenas that
// form trees — and leaves the rest to Validate, which every loader must call
// before Predict.
func (m *Model) UnmarshalJSON(data []byte) error {
	var w wireModel
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*m = Model{Cfg: w.Cfg, Base: w.Base, Dim: w.Dim}
	if w.V1 != nil {
		if w.Roots != nil || w.Feat != nil || w.Thr != nil || w.Left != nil {
			return fmt.Errorf("gb: payload holds both format-1 trees and format-2 nodes")
		}
		f, err := compileForest(w.V1)
		m.flat = f
		return err
	}
	if len(w.Thr) != len(w.Feat) || len(w.Left) != len(w.Feat) {
		return fmt.Errorf("gb: node arrays of %d features, %d thresholds and %d left children, want one length", len(w.Feat), len(w.Thr), len(w.Left))
	}
	m.flat = flatForest{nodes: make([]flatNode, len(w.Feat)), roots: w.Roots}
	for j := range m.flat.nodes {
		m.flat.nodes[j] = flatNode{thr: w.Thr[j], feat: w.Feat[j], left: w.Left[j]}
	}
	return nil
}
