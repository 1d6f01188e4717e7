package estimator

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"qfe/internal/catalog"
	"qfe/internal/core"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// LocalConfig configures a local-model estimator (Section 2.1.2): one
// (QFT, regressor) pair per sub-schema, routed by the query's table set.
type LocalConfig struct {
	// QFT is the featurization technique name ("simple", "range",
	// "conjunctive", "complex").
	QFT string
	// Opts are the QFT options (per-attribute entries, attrSel).
	Opts core.Options
	// NewRegressor builds a fresh model per sub-schema.
	NewRegressor RegressorFactory
	// RawLabels disables the log2 label transform (ablation).
	RawLabels bool
}

// Local is the local-model estimator: per sub-schema, the selection
// predicates are featurized with the configured QFT (per-table vectors
// concatenated in canonical order) and regressed by a dedicated model.
type Local struct {
	cfg       LocalConfig
	metas     map[string]*core.TableMeta
	models    map[string]*localModel
	transform labelTransform
	modelName string
}

type localModel struct {
	tables []string // sorted
	feats  []core.Featurizer
	reg    Regressor
	// offsets[i] is where feats[i]'s block starts in the concatenated
	// vector; offsets[len(tables)] is the total dimension. Fixed at
	// construction, so Estimate writes each table's encoding in place
	// instead of appending.
	offsets []int
	vecPool *sync.Pool // *featScratch, one per query in flight
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

func (lm *localModel) dim() int { return lm.offsets[len(lm.offsets)-1] }

// NewLocal builds the estimator skeleton over the database's tables. Models
// are created lazily per sub-schema during Train.
func NewLocal(db *table.DB, cfg LocalConfig) (*Local, error) {
	if cfg.NewRegressor == nil {
		return nil, fmt.Errorf("estimator: LocalConfig.NewRegressor is nil")
	}
	cfg.Opts = cfg.Opts.Normalized()
	if _, err := core.New(cfg.QFT, core.NewTableMetaFromAttrs("probe", []core.AttrMeta{{Name: "x", Min: 0, Max: 1}}, 2), cfg.Opts); err != nil {
		return nil, err
	}
	l := &Local{
		cfg:       cfg,
		metas:     make(map[string]*core.TableMeta),
		models:    make(map[string]*localModel),
		transform: labelTransform{raw: cfg.RawLabels},
		modelName: cfg.NewRegressor().Name(),
	}
	for _, tn := range db.TableNames() {
		l.metas[tn] = core.NewTableMeta(db.Table(tn), cfg.Opts.MaxEntriesPerAttr)
	}
	return l, nil
}

// Name implements Estimator, e.g. "GB + conjunctive (local)".
func (l *Local) Name() string {
	return fmt.Sprintf("%s + %s (local)", l.modelName, l.cfg.QFT)
}

// Train fits one model per sub-schema occurring in the training set. Each
// sub-schema needs enough queries for its regressor; sub-schemas without
// training queries simply have no model and fail at Estimate time.
func (l *Local) Train(train workload.Set) error {
	return l.TrainCtx(context.Background(), train, nil)
}

// modelFor creates the (untrained) local model for a table set.
func (l *Local) modelFor(tables []string) (*localModel, error) {
	sorted := append([]string(nil), tables...)
	sort.Strings(sorted)
	lm := &localModel{tables: sorted, reg: l.cfg.NewRegressor()}
	for _, tn := range sorted {
		meta, ok := l.metas[tn]
		if !ok {
			return nil, fmt.Errorf("estimator: unknown table %q", tn)
		}
		f, err := core.New(l.cfg.QFT, meta, l.cfg.Opts)
		if err != nil {
			return nil, err
		}
		lm.feats = append(lm.feats, f)
	}
	lm.offsets = make([]int, len(lm.feats)+1)
	for i, f := range lm.feats {
		lm.offsets[i+1] = lm.offsets[i] + f.Dim()
	}
	lm.vecPool = newVecPool(lm.dim(), len(lm.tables))
	return lm, nil
}

// featurizeInto writes q's encoding into dst (lm.dim() long): the WHERE is
// split by table into fs, and each table's featurization lands in place at
// its precomputed offset, in the sub-schema's canonical (sorted) table order.
func featurizeInto(lm *localModel, fs *featScratch, dst []float64, q *sqlparse.Query) error {
	if err := core.SplitWhereByTable(q, lm.tables, fs.ands); err != nil {
		return err
	}
	for i, tn := range lm.tables {
		if err := lm.feats[i].FeaturizeInto(dst[lm.offsets[i]:lm.offsets[i+1]], &fs.ands[i]); err != nil {
			return fmt.Errorf("table %q: %w", tn, err)
		}
	}
	return nil
}

// Estimate implements Estimator: route to the sub-schema's model, featurize
// into a pooled buffer, predict through the model's compiled layout, invert
// the label transform.
func (l *Local) Estimate(q *sqlparse.Query) (float64, error) {
	key := catalog.SubSchemaKey(q.Tables)
	lm, ok := l.models[key]
	if !ok {
		return 0, core.Unsupported(fmt.Errorf("estimator: no local model trained for sub-schema %q", key))
	}
	fs := lm.vecPool.Get().(*featScratch)
	defer lm.vecPool.Put(fs)
	if err := featurizeInto(lm, fs, fs.vec, q); err != nil {
		return 0, err
	}
	return l.transform.inverse(lm.reg.Predict(fs.vec)), nil
}

// EstimateCtx implements ContextEstimator. An estimate is microseconds of
// bounded arithmetic with nowhere to block, so the context is checked on
// entry and there is nothing further to interrupt. What the method buys is
// the type: the resilience chain runs a ContextEstimator on the caller's
// goroutine instead of guarding it with one of its own.
func (l *Local) EstimateCtx(ctx context.Context, q *sqlparse.Query) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return l.Estimate(q)
}

// ValidateSchema checks that the estimator's featurization metadata is
// compatible with db: every table the estimator knows must exist, and every
// featurized attribute must be a column of that table. A persisted estimator
// trained on a different schema fails here with a descriptive error at load
// time instead of failing (or panicking) deep inside estimation.
func (l *Local) ValidateSchema(db *table.DB) error {
	names := make([]string, 0, len(l.metas))
	for name := range l.metas {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := db.Table(name)
		if t == nil {
			return fmt.Errorf("estimator: schema mismatch: estimator was trained on table %q, which the database does not have (tables: %v)",
				name, db.TableNames())
		}
		for _, a := range l.metas[name].Attrs {
			if t.Column(a.Name) == nil {
				return fmt.Errorf("estimator: schema mismatch: table %q has no column %q the estimator was trained on (columns: %v)",
					name, a.Name, t.ColumnNames())
			}
		}
	}
	return nil
}

// NumModels returns the number of trained sub-schema models.
func (l *Local) NumModels() int { return len(l.models) }

// MemoryBytes sums the trained models' footprints (Section 5.7).
func (l *Local) MemoryBytes() int {
	total := 0
	for _, lm := range l.models {
		total += lm.reg.MemoryBytes()
	}
	return total
}
