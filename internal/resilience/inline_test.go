package resilience

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/ml/gb"
	"qfe/internal/table"
	"qfe/internal/testutil"
	"qfe/internal/workload"
)

// TestInlineStageAllocs: a healthy stage under a context that already
// carries a deadline (as every request context the daemon builds does) is
// answered without a single allocation — so no goroutine and no channel were
// made for it.
func TestInlineStageAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := NewResilient(Config{Timeout: time.Second, LastResort: Constant{Value: 1}},
		Stage{Name: "learned", Est: healthy(42)},
		Stage{Name: "fallback", Est: healthy(7)},
	)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if got := testing.AllocsPerRun(200, func() {
		if res := r.EstimateDetailed(ctx, testQuery); res.Estimate != 42 || res.Degraded {
			t.Fatalf("unexpected result %+v", res)
		}
	}); got != 0 {
		t.Errorf("EstimateDetailed over an inline stage allocs/op = %v, want 0", got)
	}
}

// TestInlineStageHonorsDeadline: the chain checks the deadline before each
// call, so a context spent before the chain runs reaches no stage; the last
// resort answers, degraded.
func TestInlineStageHonorsDeadline(t *testing.T) {
	first, second := healthy(1), healthy(2)
	r := NewResilient(Config{LastResort: Constant{Value: 17}},
		Stage{Name: "first", Est: first},
		Stage{Name: "second", Est: second},
	)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res := r.EstimateDetailed(ctx, testQuery); res.Estimate != 17 || res.Stage != "constant" || !res.Degraded {
		t.Errorf("cancelled context: %+v, want the last resort, degraded", res)
	}
	if first.callCount() != 0 || second.callCount() != 0 {
		t.Errorf("a stage ran under a cancelled context: first %d, second %d calls", first.callCount(), second.callCount())
	}
}

// trippingRegressor panics in Predict once each time it is armed, after
// scribbling over the feature vector it was handed — the pooled scratch of
// the estimate in flight.
type trippingRegressor struct {
	estimator.Regressor
	armed *atomic.Bool
}

func (r trippingRegressor) Predict(x []float64) float64 {
	if r.armed.Swap(false) {
		for i := range x {
			x[i] = math.NaN()
		}
		panic("model exploded mid-predict")
	}
	return r.Regressor.Predict(x)
}

// TestInlinePanicIsIsolated: a learned model that panics on the request
// goroutine becomes that stage's error and the next stage serves; the pooled
// featurization scratch the panic unwound through is as good as new, so the
// model's following estimates are bit-identical to those before the panic.
func TestInlinePanicIsIsolated(t *testing.T) {
	forest, err := dataset.Forest(dataset.ForestConfig{Rows: 1500, QuantAttrs: 12, BinaryAttrs: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	db := table.NewDB()
	if err := db.Add(forest); err != nil {
		t.Fatal(err)
	}
	set, err := workload.Mixed(forest, workload.MixedConfig{
		ConjConfig:  workload.ConjConfig{Count: 120, MaxAttrs: 8, MaxNotEquals: 5, Seed: 11},
		MaxBranches: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	newGB := estimator.NewGBFactory(gb.Config{NumTrees: 8, LearningRate: 0.3, MaxDepth: 3, MinSamplesLeaf: 2, MaxBins: 16, SubsampleRows: 1, SubsampleCols: 1, Seed: 1})
	local, err := estimator.NewLocal(db, estimator.LocalConfig{
		NewFeaturizer: func(m *core.TableMeta, o core.Options) core.Featurizer { return core.NewComplex(m, o) },
		Opts:          core.Options{MaxEntriesPerAttr: 16, AttrSel: true},
		NewRegressor:  func() estimator.Regressor { return trippingRegressor{newGB(), &armed} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Train(set); err != nil {
		t.Fatal(err)
	}
	qs := set.Queries()[:32]
	before := make([]float64, len(qs))
	for i, q := range qs {
		if before[i], err = local.Estimate(q); err != nil {
			t.Fatal(err)
		}
	}

	r := NewResilient(Config{},
		Stage{Name: "learned", Est: local},
		Stage{Name: "independence", Est: &estimator.Independence{DB: db}},
	)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	armed.Store(true)
	res := r.EstimateDetailed(ctx, qs[0])
	if res.Stage != "independence" || !res.Degraded {
		t.Fatalf("after an inline panic: %+v, want the next stage to serve", res)
	}
	if len(res.Errors) != 1 || res.Errors[0].Stage != "learned" ||
		!strings.Contains(res.Errors[0].Err.Error(), "resilience: panic in stage learned: model exploded mid-predict") {
		t.Fatalf("panic not converted to the stage's error: %v", res.Errors)
	}
	for i, q := range qs {
		got, err := local.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(before[i]) {
			t.Errorf("query %d: estimate %v after the panic, %v before", i, got, before[i])
		}
	}
	if res := r.EstimateDetailed(ctx, qs[0]); res.Stage != "learned" || res.Estimate != math.Max(before[0], 1) {
		t.Errorf("the chain did not return to the learned stage: %+v", res)
	}
}
