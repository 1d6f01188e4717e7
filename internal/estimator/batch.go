package estimator

import (
	"context"
	"sync"

	"qfe/internal/sqlparse"
)

// The estimator half of the compiled inference fast path: Local and Global
// featurize into pooled buffers at fixed per-table offsets (FeaturizeInto),
// and batch estimation fills one reused flat matrix per sub-schema and hands
// it to the regressor's compiled batch predict. Training encodes through the
// same code into fresh vectors, so there is one encoder to keep right.

// BatchEstimator is an Estimator with a batch form that amortizes buffer
// reuse and model dispatch across many queries. Results are positional:
// ests[i]/errs[i] belong to qs[i], and exactly one of them is meaningful
// per query. The serve batcher routes coalesced flushes through this when
// the whole batch targets one BatchEstimator.
type BatchEstimator interface {
	Estimator
	EstimateBatch(ctx context.Context, qs []*sqlparse.Query) (ests []float64, errs []error)
}

// batchPredictor is the compiled batch form the built-in regressors gain
// from the flattened/pooled model layouts. Regressors without it fall back
// to per-row Predict inside EstimateBatch.
type batchPredictor interface {
	PredictInto(dst []float64, X [][]float64)
}

// featScratch is the workspace of one single-query featurization: the
// feature vector the regressor reads, and the per-table split of the query's
// WHERE (core.SplitWhereByTable) that feeds each table's featurizer. It is
// owned by whoever took it from the pool, for one query at a time.
type featScratch struct {
	vec  []float64
	ands []sqlparse.And
}

// newVecPool pools featurization workspaces for vectors of a fixed dimension
// over a fixed number of tables.
func newVecPool(dim, tables int) *sync.Pool {
	return &sync.Pool{New: func() any {
		return &featScratch{vec: make([]float64, dim), ands: make([]sqlparse.And, tables)}
	}}
}

// batchScratch is one reusable batch workspace: a flat row-major matrix,
// row headers slicing into it, the prediction vector, and the mapping from
// matrix row back to the caller's query index (rows that fail featurization
// leave gaps).
type batchScratch struct {
	flat  []float64
	rows  [][]float64
	preds []float64
	idx   []int
}

// resize shapes the scratch for n rows of dim features, growing the backing
// arrays only when a larger batch arrives.
func (sc *batchScratch) resize(n, dim int) {
	if cap(sc.flat) < n*dim {
		sc.flat = make([]float64, n*dim)
	}
	sc.flat = sc.flat[:n*dim]
	if cap(sc.rows) < n {
		sc.rows = make([][]float64, n)
	}
	sc.rows = sc.rows[:n]
	for i := range sc.rows {
		sc.rows[i] = sc.flat[i*dim : (i+1)*dim]
	}
	if cap(sc.preds) < n {
		sc.preds = make([]float64, n)
		sc.idx = make([]int, n)
	}
	sc.preds = sc.preds[:n]
	sc.idx = sc.idx[:n]
}

func newBatchPool() *sync.Pool {
	return &sync.Pool{New: func() any { return new(batchScratch) }}
}

// predictBatch runs the regressor over the first n scratch rows, through the
// compiled batch path when the model has one.
func predictBatch(reg Regressor, sc *batchScratch, n int) {
	if bp, ok := reg.(batchPredictor); ok {
		bp.PredictInto(sc.preds[:n], sc.rows[:n])
		return
	}
	for r := 0; r < n; r++ {
		sc.preds[r] = reg.Predict(sc.rows[r])
	}
}
