package gb

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randRegression builds a synthetic regression problem with enough feature
// interaction to force non-trivial trees.
func randRegression(rng *rand.Rand, n, d int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64() * 10
		}
		X[i] = row
		y[i] = row[0]*3 + row[1%d]*row[2%d]*0.25 + rng.NormFloat64()
	}
	return X, y
}

// fitTrees runs the boosting loop of Train on the arenas it grows and
// returns them, unpacked, with the base: the per-tree form a model held
// before the flat forest became its only representation, and what a
// format-1 payload stores.
func fitTrees(t testing.TB, X [][]float64, y []float64, cfg Config) (base float64, trees []*tree) {
	t.Helper()
	for _, v := range y {
		base += v
	}
	base /= float64(len(y))
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := newBuilder(X, cfg)
	pred, resid := make([]float64, len(X)), make([]float64, len(X))
	for i := range pred {
		pred[i] = base
	}
	for k := 0; k < cfg.NumTrees; k++ {
		tr, err := b.boost(rng, y, pred, resid)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	return base, trees
}

// format1 encodes a model as format 1 did: its arenas under "trees".
func format1(t testing.TB, cfg Config, base float64, dim int, trees []*tree) []byte {
	t.Helper()
	data, err := json.Marshal(struct {
		Cfg   Config  `json:"cfg"`
		Base  float64 `json:"base"`
		Trees []*tree `json:"trees"`
		Dim   int     `json:"dim"`
	}{cfg, base, trees, dim})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// predict walks the arena on x's floats: the walk Predict did before the
// flat forest, and the oracle of the fit's walk on codes.
func (t *tree) predict(x []float64) float64 {
	i := int32(0)
	for {
		n := &t.Nodes[i]
		if n.Leaf {
			return n.Value
		}
		if x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// predictReference evaluates a forest through the per-tree arena walk — the
// Predict before the flat forest, kept as the ground truth the packed walk
// is held to (and timed against in BenchmarkPredictReference).
func predictReference(trees []*tree, base, lr float64, x []float64) float64 {
	out := base
	for _, t := range trees {
		out += lr * t.predict(x)
	}
	return out
}

// sameForest reports whether two models hold the same flat forest, node for
// node.
func sameForest(a, b *Model) bool {
	return reflect.DeepEqual(a.flat.nodes, b.flat.nodes) && reflect.DeepEqual(a.flat.roots, b.flat.roots)
}

// TestFlatPredictBitIdentical trains randomized forests across several
// configurations and demands the packed walk reproduce the per-tree walk of
// the arenas the same fit grew bit for bit, on in-distribution and
// far-out-of-distribution inputs alike; and that packing those arenas
// afterwards gives the forest the fit packed as it went.
func TestFlatPredictBitIdentical(t *testing.T) {
	cfgs := []Config{
		{NumTrees: 30, LearningRate: 0.2, MaxDepth: 5, MinSamplesLeaf: 2, MaxBins: 32, SubsampleRows: 0.8, SubsampleCols: 0.7, Seed: 1},
		{NumTrees: 7, LearningRate: 0.5, MaxDepth: 1, MinSamplesLeaf: 1, MaxBins: 8, SubsampleRows: 1, SubsampleCols: 1, Seed: 2},
		{NumTrees: 50, LearningRate: 0.07, MaxDepth: 9, MinSamplesLeaf: 5, MaxBins: 64, SubsampleRows: 0.6, SubsampleCols: 0.5, Seed: 3},
	}
	for ci, cfg := range cfgs {
		rng := rand.New(rand.NewSource(int64(100 + ci)))
		X, y := randRegression(rng, 400, 6)
		m, err := Train(X, y, cfg)
		if err != nil {
			t.Fatalf("cfg %d: Train: %v", ci, err)
		}
		if len(m.flat.roots) != cfg.NumTrees {
			t.Fatalf("cfg %d: trained model holds %d trees, want %d", ci, len(m.flat.roots), cfg.NumTrees)
		}
		base, trees := fitTrees(t, X, y, cfg)
		packed, err := compileForest(trees)
		if err != nil {
			t.Fatal(err)
		}
		if base != m.Base || !sameForest(m, &Model{flat: packed}) {
			t.Fatalf("cfg %d: the forest Train packed tree by tree is not its arenas packed afterwards", ci)
		}
		for trial := 0; trial < 2000; trial++ {
			x := make([]float64, 6)
			for j := range x {
				x[j] = rng.NormFloat64() * 50
			}
			got, want := m.Predict(x), predictReference(trees, base, cfg.LearningRate, x)
			if got != want {
				t.Fatalf("cfg %d trial %d: flat %v != reference %v", ci, trial, got, want)
			}
		}
	}
}

// TestFlatSurvivesRoundTrip checks a JSON round trip restores the packed
// forest node for node and re-encodes to the same bytes — the path every
// snapshot and checkpoint takes.
func TestFlatSurvivesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X, y := randRegression(rng, 200, 4)
	m, err := Train(X, y, Config{NumTrees: 20, LearningRate: 0.15, MaxDepth: 6, MinSamplesLeaf: 2, MaxBins: 32, SubsampleRows: 1, SubsampleCols: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if !sameForest(&back, m) {
		t.Fatal("decoded forest differs from the encoded one")
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("re-encoding a decoded model changed its bytes")
	}
	for trial := 0; trial < 500; trial++ {
		x := make([]float64, 4)
		for j := range x {
			x[j] = rng.NormFloat64() * 30
		}
		if got, want := back.Predict(x), m.Predict(x); got != want {
			t.Fatalf("trial %d: decoded %v != original %v", trial, got, want)
		}
	}
}

// handBuilt is a one-tree model packed from an arena, without Train.
func handBuilt(t *testing.T, nodes ...node) *Model {
	t.Helper()
	f, err := compileForest([]*tree{{Nodes: nodes}})
	if err != nil {
		t.Fatal(err)
	}
	return &Model{Cfg: Config{LearningRate: 0.5}, Base: 1, Dim: 1, flat: f}
}

// TestCompileHandBuilt: a packed arena validates and walks the tree it was
// given.
func TestCompileHandBuilt(t *testing.T) {
	m := handBuilt(t,
		node{Feature: 0, Threshold: 0, Left: 1, Right: 2},
		node{Leaf: true, Value: -2},
		node{Leaf: true, Value: 4},
	)
	if err := m.Validate(); err != nil {
		t.Fatalf("valid hand-built model: %v", err)
	}
	if got := m.Predict([]float64{-1}); got != 1+0.5*-2 {
		t.Errorf("left leaf: got %v", got)
	}
	if got := m.Predict([]float64{1}); got != 1+0.5*4 {
		t.Errorf("right leaf: got %v", got)
	}
	if got, want := m.MemoryBytes(), 3*flatNodeBytes+4+16; got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
}

// TestCompileRejectsUnfit: arenas the packer cannot lay out are an error
// that names the tree, from compileForest and from decoding a format-1
// payload — including the one shape that is in range node by node, two
// parents claiming one child. Packing only what the root reaches drops an
// unreferenced node instead of leaving a hole.
func TestCompileRejectsUnfit(t *testing.T) {
	for name, trees := range map[string][]*tree{
		"nil tree":   {nil},
		"empty tree": {{}},
	} {
		if f, err := compileForest(trees); err == nil || f.nodes != nil || f.roots != nil {
			t.Errorf("%s compiled (err %v)", name, err)
		}
	}
	leaf := &tree{Nodes: []node{{Leaf: true, Value: 7}}}
	shared := []*tree{leaf, {Nodes: []node{
		{Feature: 0, Threshold: 0, Left: 1, Right: 2},
		{Feature: 0, Threshold: -5, Left: 3, Right: 4},
		{Feature: 0, Threshold: 5, Left: 4, Right: 5},
		{Leaf: true, Value: 1},
		{Leaf: true, Value: 2},
		{Leaf: true, Value: 3},
	}}}
	_, err := compileForest(shared)
	if err == nil || !strings.Contains(err.Error(), "tree 1 node 2") {
		t.Fatalf("compileForest on a shared child = %v, want an error naming tree 1 node 2", err)
	}
	var back Model
	if got := json.Unmarshal(format1(t, Config{LearningRate: 0.1}, 1, 1, shared), &back); got == nil || got.Error() != err.Error() {
		t.Errorf("decoding it: %v, want %v", got, err)
	}

	var f flatForest
	if err := f.appendTree(leaf); err != nil {
		t.Fatal(err)
	}
	if err := f.appendTree(shared[1]); err == nil || len(f.nodes) != 1 || len(f.roots) != 1 {
		t.Errorf("a refused tree left %d nodes and %d roots (err %v), want the forest as it was", len(f.nodes), len(f.roots), err)
	}
	unreached := &tree{Nodes: []node{
		{Feature: 0, Threshold: 0, Left: 2, Right: 3},
		{Leaf: true, Value: 9}, // no edge points here
		{Leaf: true, Value: 1},
		{Leaf: true, Value: 2},
	}}
	if err := f.appendTree(unreached); err != nil {
		t.Fatal(err)
	}
	if want := []flatNode{{thr: 7, feat: -1}, {left: 2}, {thr: 1, feat: -1}, {thr: 2, feat: -1}}; !reflect.DeepEqual(f.nodes, want) {
		t.Errorf("packed %+v, want %+v", f.nodes, want)
	}
	if err := f.validate(1); err != nil {
		t.Errorf("the packed forest does not validate: %v", err)
	}
}

// TestPredictZeroAllocs pins the steady-state allocation count of the
// compiled walk at zero.
func TestPredictZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	X, y := randRegression(rng, 300, 5)
	m, err := Train(X, y, Config{NumTrees: 40, LearningRate: 0.1, MaxDepth: 7, MinSamplesLeaf: 2, MaxBins: 32, SubsampleRows: 0.9, SubsampleCols: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	x := X[0]
	if allocs := testing.AllocsPerRun(200, func() {
		m.Predict(x)
	}); allocs != 0 {
		t.Errorf("Predict allocs/op = %v, want 0", allocs)
	}
}

// TestDecodeRefusesUnpackableNodes: a payload whose node arrays cannot be one
// node each, or that carries both formats, is a decode error; the rest of
// what a payload can get wrong is Validate's.
func TestDecodeRefusesUnpackableNodes(t *testing.T) {
	for name, payload := range map[string]string{
		"short thr":    `{"dim":1,"roots":[0],"feat":[0,-1,-1],"thr":[0,1],"left":[1,0,0]}`,
		"long left":    `{"dim":1,"roots":[0],"feat":[-1],"thr":[1],"left":[0,0]}`,
		"both formats": `{"dim":1,"roots":[0],"feat":[-1],"thr":[1],"left":[0],"trees":[{"nodes":[{"leaf":true,"v":1}]}]}`,
	} {
		var m Model
		if err := json.Unmarshal([]byte(payload), &m); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	var m Model
	if err := json.Unmarshal([]byte(`{"dim":1,"roots":[0],"feat":[0],"thr":[1],"left":[1]}`), &m); err != nil {
		t.Fatalf("a payload only Validate can refuse: %v", err)
	}
	if err := m.Validate(); err == nil {
		t.Error("a node whose children lie past the last node validated")
	}
}

// TestValidatedForestsWalkSafely is the mutation test of Validate's claim:
// whatever forest it accepts, Predict walks without panicking, and each tree
// is left within its block's size of steps (counted here by a walk of the
// test's own). Mutants of a trained model get one to three edits — a node's
// feature, threshold or left child, a root, the input width — drawn mostly
// at and around the edges Validate checks, so both verdicts are common.
func TestValidatedForestsWalkSafely(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	X, y := randRegression(rng, 300, 4)
	m, err := Train(X, y, Config{NumTrees: 12, LearningRate: 0.2, MaxDepth: 4, MinSamplesLeaf: 2, MaxBins: 16, SubsampleRows: 1, SubsampleCols: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pick := func(vals ...int) int { return vals[rng.Intn(len(vals))] }
	accepted, refused := 0, 0
	for trial := 0; trial < 20_000; trial++ {
		mut := *m
		mut.flat = flatForest{nodes: append([]flatNode(nil), m.flat.nodes...), roots: append([]int32(nil), m.flat.roots...)}
		f := &mut.flat
		for e := 0; e <= rng.Intn(3); e++ {
			j := rng.Intn(len(f.nodes))
			switch rng.Intn(5) {
			case 0:
				f.nodes[j].feat = int32(pick(-2, -1, 0, m.Dim-1, m.Dim, rng.Intn(m.Dim)))
			case 1:
				f.nodes[j].thr = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, rng.NormFloat64() * 10}[rng.Intn(5)]
			case 2:
				f.nodes[j].left = int32(pick(j-1, j, j+1, j+2, len(f.nodes)-2, len(f.nodes)-1, rng.Intn(len(f.nodes))))
			case 3:
				r := rng.Intn(len(f.roots))
				f.roots[r] = int32(pick(int(f.roots[r])-1, int(f.roots[r])+1, len(f.nodes), rng.Intn(len(f.nodes))))
			case 4:
				mut.Dim = pick(0, 1, 3, m.Dim+1)
			}
		}
		if mut.Validate() != nil {
			refused++
			continue
		}
		accepted++
		x := make([]float64, mut.Dim)
		for i := range x {
			x[i] = rng.NormFloat64() * 20
		}
		for ti, lo := range f.roots {
			hi := len(f.nodes)
			if ti+1 < len(f.roots) {
				hi = int(f.roots[ti+1])
			}
			steps := 0
			for j := int(lo); f.nodes[j].feat >= 0; steps++ {
				if steps >= hi-int(lo) {
					t.Fatalf("trial %d: tree %d is still walking after %d steps, its block's size", trial, ti, steps)
				}
				n := f.nodes[j]
				j = int(n.left) + 1
				if x[n.feat] <= n.thr {
					j = int(n.left)
				}
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: Predict on a validated forest panicked: %v", trial, r)
				}
			}()
			mut.Predict(x)
		}()
	}
	t.Logf("%d mutants validated and walked, %d refused", accepted, refused)
	if accepted < 2000 || refused < 2000 {
		t.Fatalf("%d mutants validated and %d were refused: want both verdicts common", accepted, refused)
	}
}
