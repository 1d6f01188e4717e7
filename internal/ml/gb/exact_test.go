package gb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestResidualSumsAreExact is the property split search now rests on: once a
// stage's residuals are on its grid, adding them is exact, so their sum is
// the same float64 in input, reversed and shuffled order, and the sum of all
// less the sum of any of them is the sum of the rest — which is how a node's
// histogram yields its larger child's. Over training sets of 1, 2 and 2000
// rows and residuals that are all zero, subnormal, near 1e-300, ordinary and
// near 1e300; on the grid a residual moves by at most half a unit, under
// 2^-52 of n·max|resid|.
func TestResidualSumsAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sum := func(resid []float64, order []int, take func(i int) bool) float64 {
		var s float64
		for _, i := range order {
			if take(i) {
				s += resid[i]
			}
		}
		return s
	}
	all := func(int) bool { return true }
	for _, scale := range []float64{0, 3 * math.SmallestNonzeroFloat64, 1e-300, 1, 1e300} {
		for _, n := range []int{1, 2, 2000} {
			name := fmt.Sprintf("scale %g, n = %d", scale, n)
			y, pred, resid := make([]float64, n), make([]float64, n), make([]float64, n)
			var mx float64
			for i := range y {
				y[i], pred[i] = scale*rng.NormFloat64(), scale*rng.NormFloat64()/8
				mx = math.Max(mx, math.Abs(y[i]-pred[i]))
			}
			if err := residuals(resid, y, pred); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, g := range resid {
				if off := math.Abs(g - (y[i] - pred[i])); off > float64(n)*mx*0x1p-52 {
					t.Fatalf("%s: residual %d moved by %g onto the grid, want at most %g", name, i, off, float64(n)*mx*0x1p-52)
				}
			}
			forward, reversed := make([]int, n), make([]int, n)
			for i := range forward {
				forward[i], reversed[i] = i, n-1-i
			}
			want := sum(resid, forward, all)
			for label, order := range map[string][]int{"reversed": reversed, "shuffled": rng.Perm(n)} {
				if got := sum(resid, order, all); got != want {
					t.Fatalf("%s: sum in %s order %v, in input order %v", name, label, got, want)
				}
			}
			for trial := 0; trial < 20; trial++ {
				in := make([]bool, n)
				for i := range in {
					in[i] = rng.Intn(3) == 0
				}
				subset := sum(resid, rng.Perm(n), func(i int) bool { return in[i] })
				rest := sum(resid, forward, func(i int) bool { return !in[i] })
				if want-subset != rest {
					t.Fatalf("%s: sum of all %v less a subset's %v is %v, the rest sums to %v", name, want, subset, want-subset, rest)
				}
			}
		}
	}
}

// TestResidualsRefuseOverflow: a grid exists only while n·max|resid| is a
// float64; past that the stage is refused rather than fit on Inf or NaN.
func TestResidualsRefuseOverflow(t *testing.T) {
	n := 2000
	y, pred, resid := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range y {
		y[i] = 1e306
	}
	if err := residuals(resid, y, pred); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Errorf("2000 residuals of 1e306: error %v, want one naming the overflow", err)
	}
	y, pred = []float64{math.MaxFloat64, 1}, []float64{-math.MaxFloat64, 0}
	if err := residuals(resid[:2], y, pred); err == nil {
		t.Error("a residual that is itself +Inf was accepted")
	}
	if err := residuals(resid[:2], y, []float64{0, math.NaN()}); err == nil {
		t.Error("a NaN residual was accepted")
	}
}

// TestTrainRefusesNonFiniteTargets: a NaN or infinite target used to be fit
// silently; it is an error naming the first offending sample. So is a NaN or
// infinite feature, which has no bin whose code orders as its value does.
// Finite targets of any magnitude whose sum is finite train.
func TestTrainRefusesNonFiniteTargets(t *testing.T) {
	X, y := makeRegression(rand.New(rand.NewSource(1)), 200, 3)
	cfg := DefaultConfig()
	cfg.NumTrees = 3
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		y2 := append([]float64(nil), y...)
		y2[17], y2[90] = bad, bad
		_, err := Train(X, y2, cfg)
		if err == nil || !strings.Contains(err.Error(), "target 17 ") {
			t.Errorf("target 17 = %v: error %v, want one naming target 17", bad, err)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		X2 := append([][]float64(nil), X...)
		X2[23] = []float64{X[23][0], bad, X[23][2]}
		_, err := Train(X2, y, cfg)
		if err == nil || !strings.Contains(err.Error(), "sample 23 feature 1 ") {
			t.Errorf("sample 23 feature 1 = %v: error %v, want one naming them", bad, err)
		}
	}
	for _, scale := range []float64{0, 1e-300, 1e300} {
		y2 := make([]float64, len(y))
		for i := range y2 {
			y2[i] = y[i] * scale
		}
		m, err := Train(X, y2, cfg)
		if err != nil {
			t.Fatalf("targets scaled by %g: %v", scale, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("targets scaled by %g: %v", scale, err)
		}
	}
	y2 := make([]float64, len(y))
	for i := range y2 {
		y2[i] = 1e307 * (1 + y[i])
	}
	if _, err := Train(X, y2, cfg); err == nil {
		t.Error("targets whose sum overflows were accepted")
	}
}

// TestLeafUpdatesMatchTreeWalk: a leaf advances the running predictions of
// the rows it owns while the tree is grown, and only the rows the tree did
// not sample walk it afterwards, on their codes. The sweep that was replaced —
// every row walks every finished tree on its floats — is the oracle: after
// each tree the two agree bit for bit, with every row sampled, nine in ten and
// half. The stages driven here are the ones Train runs (their arenas
// pack, tree by tree, into the forest Train returns, node for node). After
// every tree the histograms are all back on the free list.
func TestLeafUpdatesMatchTreeWalk(t *testing.T) {
	X, y := qftLike(rand.New(rand.NewSource(9)), 700, 23)
	for _, rate := range []float64{1, 0.9, 0.5} {
		name := fmt.Sprintf("rows=%v", rate)
		cfg := DefaultConfig()
		cfg.NumTrees, cfg.SubsampleRows, cfg.Seed = 8, rate, 4
		m, err := Train(X, y, cfg)
		if err != nil {
			t.Fatal(err)
		}

		b := newBuilder(X, cfg)
		rng := rand.New(rand.NewSource(cfg.Seed))
		n := len(X)
		pred, sweep, resid := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range pred {
			pred[i], sweep[i] = m.Base, m.Base
		}
		var packed flatForest
		for k := 0; k < cfg.NumTrees; k++ {
			tr, err := b.boost(rng, y, pred, resid)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sweep {
				sweep[i] += cfg.LearningRate * tr.predict(X[i])
			}
			for i := range sweep {
				if math.Float64bits(pred[i]) != math.Float64bits(sweep[i]) {
					t.Fatalf("%s: after tree %d row %d is at %v, the sweep puts it at %v", name, k+1, i, pred[i], sweep[i])
				}
			}
			if err := packed.appendTree(tr); err != nil {
				t.Fatal(err)
			}
			if n := len(packed.nodes); n > len(m.flat.nodes) || !reflect.DeepEqual(packed.nodes, m.flat.nodes[:n]) ||
				!reflect.DeepEqual(packed.roots, m.flat.roots[:k+1]) {
				t.Fatalf("%s: tree %d is not the one Train fit", name, k+1)
			}
			if len(tr.Nodes) < 3 {
				t.Fatalf("%s: tree %d did not split", name, k+1)
			}
			assertHistsFree(t, b)
		}
	}
}
