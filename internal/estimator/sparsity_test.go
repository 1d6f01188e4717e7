package estimator

import (
	"testing"

	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// TestQFTVectorsSitAtTheColumnMaximum pins the property GB's training speed
// rests on. Algorithm 1 starts every attribute from the all-one vector, so in
// the conjunctive and complex encodings of the workloads the daemon trains
// them on, most entries of the training matrix are their column's maximum —
// the last histogram bin, the one no split reads and gb's split search
// therefore never accumulates (internal/ml/gb/tree.go). Measured at the boot
// sizing: 76 % (conjunctive) and 80 % (complex). If a change to the "no
// predicate" encoding moves that mass elsewhere, nothing fails and the model
// stays the same, but a fit takes several times longer; this is the test that
// says why. (The simple QFT encodes "no predicate" as zeros and range as the
// pair (0, 1), so they never had the property: 26 % and 40 %.)
func TestQFTVectorsSitAtTheColumnMaximum(t *testing.T) {
	tbl, err := dataset.Forest(dataset.ForestConfig{Rows: 4000, QuantAttrs: 12, BinaryAttrs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	db := table.NewDB()
	db.MustAdd(tbl)
	conj := workload.ConjConfig{Count: 400, MaxAttrs: 8, MaxNotEquals: 5, Seed: 1}
	conjunctive, err := workload.Conjunctive(tbl, conj)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := workload.Mixed(tbl, workload.MixedConfig{ConjConfig: conj, MaxBranches: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		qft string
		set workload.Set
	}{{"conjunctive", conjunctive}, {"complex", mixed}} {
		loc, err := NewLocal(db, LocalConfig{
			QFT:          tc.qft,
			Opts:         core.Options{MaxEntriesPerAttr: 32, AttrSel: true},
			NewRegressor: NewGBFactory(smallGB()),
		})
		if err != nil {
			t.Fatal(err)
		}
		lm, err := loc.modelFor(tc.set[0].Query.Tables)
		if err != nil {
			t.Fatal(err)
		}
		fs := lm.vecPool.Get().(*featScratch)
		X := make([][]float64, len(tc.set))
		for i, lq := range tc.set {
			X[i] = make([]float64, lm.dim())
			if err := featurizeInto(lm, fs, X[i], lq.Query); err != nil {
				t.Fatal(err)
			}
		}
		atMax := 0
		for f := 0; f < lm.dim(); f++ {
			mx := X[0][f]
			for _, row := range X {
				mx = max(mx, row[f])
			}
			for _, row := range X {
				if row[f] == mx {
					atMax++
				}
			}
		}
		share := float64(atMax) / float64(len(X)*lm.dim())
		t.Logf("%s: %d x %d, %.1f %% of entries at their column's maximum", tc.qft, len(X), lm.dim(), 100*share)
		if share < 0.70 {
			t.Errorf("%s: %.1f %% of the training matrix is at its column's maximum, want at least 70 %%: gb accumulates everything below it",
				tc.qft, 100*share)
		}
	}
}
