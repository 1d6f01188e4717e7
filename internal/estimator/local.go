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
	// NewFeaturizer builds the QFT over each table of a sub-schema, as
	// NewRegressor builds its model.
	NewFeaturizer func(meta *core.TableMeta, opts core.Options) core.Featurizer
	// Opts are the QFT options (per-attribute entries, attrSel).
	Opts core.Options
	// NewRegressor builds a fresh model per sub-schema.
	NewRegressor RegressorFactory
}

// Local is the local-model estimator: per sub-schema, the selection
// predicates are featurized with the configured QFT (per-table vectors
// concatenated in canonical order) and regressed by a dedicated model on
// log2 labels (Log2Label).
type Local struct {
	cfg       LocalConfig
	metas     map[string]*core.TableMeta
	models    map[string]*localModel
	qftName   string
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
// feature vector the regressor reads, and, over more than one table, the
// per-table split of the query's WHERE (core.SplitWhereByTable) that feeds
// each table's featurizer. It is owned by whoever took it from the pool, for
// one query at a time.
type featScratch struct {
	vec  []float64
	ands []sqlparse.And
}

// newVecPool pools featurization workspaces for vectors of a fixed dimension
// over a fixed number of tables.
func newVecPool(dim, tables int) *sync.Pool {
	return &sync.Pool{New: func() any {
		fs := &featScratch{vec: make([]float64, dim)}
		if tables > 1 {
			fs.ands = make([]sqlparse.And, tables)
		}
		return fs
	}}
}

func (lm *localModel) dim() int { return lm.offsets[len(lm.offsets)-1] }

// NewLocal builds the estimator skeleton over the database's tables. Models
// are created lazily per sub-schema during Train.
func NewLocal(db *table.DB, cfg LocalConfig) (*Local, error) {
	if cfg.NewFeaturizer == nil || cfg.NewRegressor == nil {
		return nil, fmt.Errorf("estimator: LocalConfig needs both NewFeaturizer and NewRegressor")
	}
	l := newLocal(cfg)
	for _, tn := range db.TableNames() {
		l.metas[tn] = core.NewTableMeta(db.Table(tn), l.cfg.Opts.MaxEntriesPerAttr)
	}
	return l, nil
}

// newLocal is a Local without metas or models, named after what cfg builds:
// a featurizer over no attributes and a fresh regressor.
func newLocal(cfg LocalConfig) *Local {
	cfg.Opts = cfg.Opts.Normalized()
	return &Local{
		cfg:       cfg,
		metas:     make(map[string]*core.TableMeta),
		models:    make(map[string]*localModel),
		qftName:   cfg.NewFeaturizer(core.NewTableMetaFromAttrs("", nil, 1), cfg.Opts).Name(),
		modelName: cfg.NewRegressor().Name(),
	}
}

// Name implements Estimator, e.g. "GB + conjunctive (local)".
func (l *Local) Name() string {
	return fmt.Sprintf("%s + %s (local)", l.modelName, l.qftName)
}

// Train fits one model per sub-schema occurring in the training set, in
// sorted sub-schema order. Each sub-schema needs enough queries for its
// regressor; sub-schemas without training queries simply have no model and
// fail at Estimate time.
func (l *Local) Train(train workload.Set) error {
	grouped := make(map[string]workload.Set)
	for _, lq := range train {
		key := catalog.SubSchemaKey(lq.Query.Tables)
		grouped[key] = append(grouped[key], lq)
	}
	keys := make([]string, 0, len(grouped))
	for k := range grouped {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	for _, key := range keys {
		set := grouped[key]
		lm, err := l.modelFor(set[0].Query.Tables)
		if err != nil {
			return err
		}
		// Training encodes through the serving encoder, into fresh vectors.
		fs := lm.vecPool.Get().(*featScratch)
		X := make([][]float64, len(set))
		for i, lq := range set {
			X[i] = make([]float64, lm.dim())
			if err := featurizeInto(lm, fs, X[i], lq.Query); err != nil {
				return fmt.Errorf("estimator: featurize training query %d of %s: %w", i, key, err)
			}
		}
		lm.vecPool.Put(fs)
		y := set.Cards()
		for i, c := range y {
			y[i] = Log2Label(c)
		}
		if err := lm.reg.Fit(X, y); err != nil {
			return fmt.Errorf("estimator: fit sub-schema %s: %w", key, err)
		}
		l.models[key] = lm
	}
	return nil
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
		lm.feats = append(lm.feats, l.cfg.NewFeaturizer(meta, l.cfg.Opts))
	}
	lm.offsets = make([]int, len(lm.feats)+1)
	for i, f := range lm.feats {
		lm.offsets[i+1] = lm.offsets[i] + f.Dim()
	}
	lm.vecPool = newVecPool(lm.dim(), len(lm.tables))
	return lm, nil
}

// featurizeInto writes q's encoding into dst (lm.dim() long): each table's
// featurization lands in place at its precomputed offset, in the
// sub-schema's canonical (sorted) table order. A one-table sub-schema's
// featurizer is handed the WHERE whole — it places every conjunct on one of
// its attributes or refuses the query — and a wider one's the share
// core.SplitWhereByTable splits off for its table into fs.
func featurizeInto(lm *localModel, fs *featScratch, dst []float64, q *sqlparse.Query) error {
	if len(lm.tables) == 1 {
		if err := lm.feats[0].FeaturizeInto(dst, q.Where); err != nil {
			return fmt.Errorf("table %q: %w", lm.tables[0], err)
		}
		return nil
	}
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
// the log2 label.
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
	return FromLog2Label(lm.reg.Predict(fs.vec)), nil
}

// EstimateCtx implements ContextEstimator. An estimate is microseconds of
// bounded arithmetic with nowhere to block, so the context is checked on
// entry and there is nothing further to interrupt: the resilience chain,
// which calls every stage on the caller's goroutine, relies on it returning
// within microseconds of a spent deadline.
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
// time instead of failing (or panicking) deep inside estimation. On success
// each meta reads the column stamps exec.Bind writes against db
// (core.TableMeta.MapColumns), whatever db's column order.
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
		if col := l.metas[name].MapColumns(t); col != "" {
			return fmt.Errorf("estimator: schema mismatch: table %q has no column %q the estimator was trained on (columns: %v)",
				name, col, t.ColumnNames())
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
