package estimator

import (
	"context"
	"fmt"
	"sync"

	"qfe/internal/catalog"
	"qfe/internal/core"
	"qfe/internal/ml/mscn"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// Global is the global-model estimator of Section 2.1.2: a single regressor
// over the concatenated per-table featurizations plus the table bit-vector,
// serving every sub-schema of the schema.
type Global struct {
	feat      *core.GlobalFeaturizer
	reg       Regressor
	transform labelTransform
	qft       string

	vecPool *sync.Pool // *featScratch, one per query in flight
}

// NewGlobal builds the estimator over the schema using the named QFT.
func NewGlobal(db *table.DB, schema *catalog.Schema, qft string, opts core.Options, factory RegressorFactory, rawLabels bool) (*Global, error) {
	opts = opts.Normalized()
	metas := make(map[string]*core.TableMeta, len(schema.Tables))
	for _, tn := range schema.Tables {
		t := db.Table(tn)
		if t == nil {
			return nil, fmt.Errorf("estimator: schema table %q not in database", tn)
		}
		metas[tn] = core.NewTableMeta(t, opts.MaxEntriesPerAttr)
	}
	gf, err := core.NewGlobalFeaturizer(schema, metas, qft, opts)
	if err != nil {
		return nil, err
	}
	return &Global{
		feat: gf, reg: factory(), transform: labelTransform{raw: rawLabels}, qft: qft,
		vecPool: newVecPool(gf.Dim(), 0),
	}, nil
}

// Name implements Estimator.
func (g *Global) Name() string {
	return fmt.Sprintf("%s + %s (global)", g.reg.Name(), g.qft)
}

// Train fits the single global model on the whole training set.
func (g *Global) Train(train workload.Set) error {
	X := make([][]float64, len(train))
	for i, lq := range train {
		vec, err := g.feat.Featurize(lq.Query)
		if err != nil {
			return fmt.Errorf("estimator: featurize training query %d: %w", i, err)
		}
		X[i] = vec
	}
	return g.reg.Fit(X, g.transform.transformAll(train.Cards()))
}

// Estimate implements Estimator: featurize into a pooled buffer, predict
// through the model's compiled layout, invert the label transform.
func (g *Global) Estimate(q *sqlparse.Query) (float64, error) {
	fs := g.vecPool.Get().(*featScratch)
	defer g.vecPool.Put(fs)
	if err := g.feat.FeaturizeInto(fs.vec, q); err != nil {
		return 0, err
	}
	return g.transform.inverse(g.reg.Predict(fs.vec)), nil
}

// EstimateCtx implements ContextEstimator; see Local.EstimateCtx.
func (g *Global) EstimateCtx(ctx context.Context, q *sqlparse.Query) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return g.Estimate(q)
}

// MemoryBytes reports the trained model's footprint.
func (g *Global) MemoryBytes() int { return g.reg.MemoryBytes() }

// MSCN is the multi-set convolutional estimator: the original MSCN
// featurization ("MSCN w/o mods", Table 2) or the paper's per-attribute QFT
// modification ("MSCN + conj", Section 4.2), over the mscn network.
type MSCN struct {
	feat      *core.MSCNFeaturizer
	cfg       mscn.Config
	model     *mscn.Model
	transform labelTransform
}

// NewMSCN builds the estimator. mode selects the predicate-set encoding.
func NewMSCN(db *table.DB, schema *catalog.Schema, mode core.MSCNMode, opts core.Options, cfg mscn.Config, rawLabels bool) (*MSCN, error) {
	opts = opts.Normalized()
	metas := make(map[string]*core.TableMeta, len(schema.Tables))
	for _, tn := range schema.Tables {
		t := db.Table(tn)
		if t == nil {
			return nil, fmt.Errorf("estimator: schema table %q not in database", tn)
		}
		metas[tn] = core.NewTableMeta(t, opts.MaxEntriesPerAttr)
	}
	mf, err := core.NewMSCNFeaturizer(schema, metas, mode, opts)
	if err != nil {
		return nil, err
	}
	return &MSCN{feat: mf, cfg: cfg, transform: labelTransform{raw: rawLabels}}, nil
}

// Name implements Estimator.
func (m *MSCN) Name() string {
	switch m.feat.Mode {
	case core.MSCNOriginal:
		return "MSCN w/o mods (global)"
	case core.MSCNRange:
		return "MSCN + range (global)"
	default:
		return "MSCN + conj (global)"
	}
}

// Train fits the set network on the whole training set.
func (m *MSCN) Train(train workload.Set) error {
	samples := make([]*mscn.Sets, len(train))
	for i, lq := range train {
		s, err := m.featurize(lq.Query)
		if err != nil {
			return fmt.Errorf("estimator: featurize training query %d: %w", i, err)
		}
		samples[i] = s
	}
	model, err := mscn.Train(samples, m.transform.transformAll(train.Cards()), m.cfg)
	if err != nil {
		return err
	}
	m.model = model
	return nil
}

func (m *MSCN) featurize(q *sqlparse.Query) (*mscn.Sets, error) {
	sets, err := m.feat.Featurize(q)
	if err != nil {
		return nil, err
	}
	return &mscn.Sets{Tables: sets.Tables, Joins: sets.Joins, Preds: sets.Preds}, nil
}

// Estimate implements Estimator.
func (m *MSCN) Estimate(q *sqlparse.Query) (float64, error) {
	if m.model == nil {
		return 0, fmt.Errorf("estimator: MSCN used before Train")
	}
	s, err := m.featurize(q)
	if err != nil {
		return 0, err
	}
	return m.transform.inverse(m.model.Predict(s)), nil
}

// EstimateCtx implements ContextEstimator; see Local.EstimateCtx.
func (m *MSCN) EstimateCtx(ctx context.Context, q *sqlparse.Query) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return m.Estimate(q)
}

// MemoryBytes reports the trained network's footprint.
func (m *MSCN) MemoryBytes() int {
	if m.model == nil {
		return 0
	}
	return m.model.MemoryBytes()
}
