package gb

import (
	"math"
	"testing"

	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/workload"
)

// bootSet is the training set a cardestd boot fits GB on under one QFT.
type bootSet struct {
	qft string
	X   [][]float64
	y   []float64
}

// bootMatrices builds, for each of the four QFTs, what a boot trains on at a
// chosen size: the forest table, the workload cli.BuildForestEnv draws for
// the QFT (mixed AND/OR queries for complex, conjunctive for the other
// three, which share one), 32 entries per attribute, log2(card+1) labels.
func bootMatrices(t testing.TB, rows, queries int) []bootSet {
	t.Helper()
	forest, err := dataset.Forest(dataset.ForestConfig{Rows: rows, QuantAttrs: 12, BinaryAttrs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	conj := workload.ConjConfig{Count: queries, MaxAttrs: 8, MaxNotEquals: 5, Seed: 1}
	conjunctive, err := workload.Conjunctive(forest, conj)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := workload.Mixed(forest, workload.MixedConfig{ConjConfig: conj, MaxBranches: 3})
	if err != nil {
		t.Fatal(err)
	}
	meta := core.NewTableMeta(forest, 32)
	var sets []bootSet
	for _, qft := range core.QFTNames() {
		set := conjunctive
		if qft == "complex" {
			set = mixed
		}
		feat, err := core.New(qft, meta, core.Options{MaxEntriesPerAttr: 32, AttrSel: true})
		if err != nil {
			t.Fatal(err)
		}
		bs := bootSet{qft: qft, X: make([][]float64, len(set)), y: make([]float64, len(set))}
		for i, lq := range set {
			if bs.X[i], err = feat.Featurize(lq.Query.Where); err != nil {
				t.Fatal(err)
			}
			bs.y[i] = math.Log2(float64(lq.Card) + 1)
		}
		sets = append(sets, bs)
	}
	return sets
}

// TestBootShapedModelMatchesOracle is the model-identity check on real
// feature vectors rather than synthetic ones: for each QFT, on the matrix a
// boot trains on, Train returns the dense oracle's model byte for byte, for
// every worker count. Train accumulates the root of a tree and the smaller
// child of each split and takes every other histogram by subtraction; the
// oracle passes over each node's rows from scratch, one feature at a time.
// Both fit residuals rounded to the stage's grid (residuals), and it is the
// exactness of sums on that grid that carries the identity, not luck: with the
// rounding taken out of residuals, and so out of both sides, this test fails
// at its first comparison (simple, workers=1), a parent's cells less one
// child's then being a last bit away from the other child's summed directly.
func TestBootShapedModelMatchesOracle(t *testing.T) {
	rows, queries, trees := 20_000, 2_000, 12
	if testing.Short() {
		rows, queries, trees = 4_000, 500, 6
	}
	for _, bs := range bootMatrices(t, rows, queries) {
		qft, X, y := bs.qft, bs.X, bs.y
		cfg := DefaultConfig()
		cfg.NumTrees = trees
		want := marshalNormalized(t, oracleTrain(X, y, cfg))
		for _, workers := range []int{1, 2, 3, 7} {
			cfg.Workers = workers
			m, err := Train(X, y, cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", qft, workers, err)
			}
			if marshalNormalized(t, m) != want {
				t.Fatalf("%s workers=%d: trained model differs from the oracle's", qft, workers)
			}
		}
	}
}
