package bench

import (
	"fmt"
	"sync"

	"qfe/internal/bench/mscn"
	"qfe/internal/bench/nn"
	"qfe/internal/bench/qft"
	"qfe/internal/catalog"
	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/ml/gb"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// Env lazily builds and caches the shared experiment artifacts — datasets
// and labeled workloads — so that running several experiments in one process
// (benchrunner, the benchmark suite) pays for generation and labeling once.
// The paper spends 3.5 days generating and labeling queries; caching the
// labeled workloads is this harness's equivalent of their query log.
type Env struct {
	Scale Scale

	// Workers bounds the training/labeling goroutines of the learned
	// models (gb/nn); < 1 means one per logical CPU. Results are
	// bit-identical for every value — only wall-clock changes.
	Workers int

	mu sync.Mutex

	forest   *table.Table
	forestDB *table.DB

	conjSet  workload.Set
	mixedSet workload.Set

	imdb     *table.DB
	schema   *catalog.Schema
	joinSet  workload.Set
	jobLight workload.Set
}

// NewEnv returns an empty environment at the given scale.
func NewEnv(scale Scale) *Env { return &Env{Scale: scale} }

// Forest returns the covertype-shaped table, building it on first use.
func (e *Env) Forest() (*table.Table, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.forestLocked()
}

func (e *Env) forestLocked() (*table.Table, error) {
	if e.forest == nil {
		t, err := dataset.Forest(dataset.ForestConfig{
			Rows:        e.Scale.ForestRows,
			QuantAttrs:  e.Scale.ForestQuant,
			BinaryAttrs: e.Scale.ForestBinary,
			Seed:        20230328,
		})
		if err != nil {
			return nil, err
		}
		e.forest = t
		e.forestDB = table.NewDB()
		e.forestDB.MustAdd(t)
	}
	return e.forest, nil
}

// ForestDB returns the forest table wrapped as a database.
func (e *Env) ForestDB() (*table.DB, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.forestLocked(); err != nil {
		return nil, err
	}
	return e.forestDB, nil
}

// ConjWorkload returns the labeled conjunctive workload split into train and
// test.
func (e *Env) ConjWorkload() (train, test workload.Set, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.conjSet == nil {
		t, err := e.forestLocked()
		if err != nil {
			return nil, nil, err
		}
		e.conjSet, err = workload.Conjunctive(t, workload.ConjConfig{
			Count:        e.Scale.ConjCount,
			MaxAttrs:     e.Scale.ForestMaxAttrs,
			MaxNotEquals: 5,
			Seed:         1,
		})
		if err != nil {
			return nil, nil, err
		}
	}
	tr, te := e.conjSet.Split(len(e.conjSet) - e.Scale.TestCount)
	return tr, te, nil
}

// MixedWorkload returns the labeled mixed workload split into train and
// test.
func (e *Env) MixedWorkload() (train, test workload.Set, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mixedSet == nil {
		t, err := e.forestLocked()
		if err != nil {
			return nil, nil, err
		}
		e.mixedSet, err = workload.Mixed(t, workload.MixedConfig{
			ConjConfig: workload.ConjConfig{
				Count:        e.Scale.MixedCount,
				MaxAttrs:     e.Scale.ForestMaxAttrs,
				MaxNotEquals: 5,
				Seed:         2,
			},
			MaxBranches: 3,
		})
		if err != nil {
			return nil, nil, err
		}
	}
	tr, te := e.mixedSet.Split(len(e.mixedSet) - e.Scale.TestCount)
	return tr, te, nil
}

// IMDB returns the star-schema database and its catalog schema.
func (e *Env) IMDB() (*table.DB, *catalog.Schema, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.imdbLocked()
}

func (e *Env) imdbLocked() (*table.DB, *catalog.Schema, error) {
	if e.imdb == nil {
		db, err := dataset.IMDB(dataset.IMDBConfig{Titles: e.Scale.IMDBTitles, Seed: 20190112})
		if err != nil {
			return nil, nil, err
		}
		e.imdb = db
		e.schema = dataset.IMDBSchema()
	}
	return e.imdb, e.schema, nil
}

// JoinTraining returns the stratified join training workload: JoinPerSub
// labeled queries for every connected sub-schema.
func (e *Env) JoinTraining() (workload.Set, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.joinSet == nil {
		db, schema, err := e.imdbLocked()
		if err != nil {
			return nil, err
		}
		e.joinSet, err = workload.StratifiedJoinTraining(db, schema, e.Scale.JoinPerSub, 0, 5, 231)
		if err != nil {
			return nil, err
		}
	}
	return e.joinSet, nil
}

// JOBLight returns the JOB-light-style test suite.
func (e *Env) JOBLight() (workload.Set, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.jobLight == nil {
		db, schema, err := e.imdbLocked()
		if err != nil {
			return nil, err
		}
		cfg := workload.DefaultJOBLightConfig()
		cfg.Count = e.Scale.JOBLightCount
		e.jobLight, err = workload.JOBLight(db, schema, cfg)
		if err != nil {
			return nil, err
		}
	}
	return e.jobLight, nil
}

// ForestSchema returns the one-table schema used to run MSCN as a global
// model over the forest workloads (Figure 1).
func (e *Env) ForestSchema() (*catalog.Schema, error) {
	t, err := e.Forest()
	if err != nil {
		return nil, err
	}
	return &catalog.Schema{Tables: []string{t.Name}}, nil
}

// Model configuration helpers tied to the scale profile.

func (e *Env) gbConfig() gb.Config {
	cfg := gb.DefaultConfig()
	cfg.NumTrees = e.Scale.GBTrees
	cfg.Seed = 7
	cfg.Workers = e.Workers
	return cfg
}

func (e *Env) nnConfig() nn.Config {
	cfg := nn.DefaultConfig()
	cfg.Hidden = append([]int(nil), e.Scale.NNHidden...)
	cfg.Epochs = e.Scale.NNEpochs
	cfg.Seed = 7
	cfg.Workers = e.Workers
	return cfg
}

func (e *Env) mscnConfig() mscn.Config {
	cfg := mscn.DefaultConfig()
	cfg.Epochs = e.Scale.MSCNEpochs
	cfg.Seed = 7
	return cfg
}

func (e *Env) coreOptions() core.Options {
	return core.Options{MaxEntriesPerAttr: e.Scale.Entries, AttrSel: true}
}

// regressorFactory resolves a model name for the harness: the paper's GB and
// NN at the scale profile's configuration, plus ext1's LR.
func (e *Env) regressorFactory(model string) (estimator.RegressorFactory, error) {
	switch model {
	case "GB":
		return estimator.NewGBFactory(e.gbConfig()), nil
	case "NN":
		return NewNNFactory(e.nnConfig()), nil
	case "LR":
		return func() estimator.Regressor { return &linRegRegressor{} }, nil
	}
	return nil, fmt.Errorf("bench: unknown model %q (want GB, NN or LR)", model)
}

// trainLocal builds and trains a local estimator for the named QFT and
// model over the forest table.
func (e *Env) trainLocal(name, model string, opts core.Options, train workload.Set) (*estimator.Local, error) {
	db, err := e.ForestDB()
	if err != nil {
		return nil, err
	}
	return e.trainLocalOn(db, name, model, opts, train)
}

// trainJoinLocal is trainLocal over the IMDb schema.
func (e *Env) trainJoinLocal(name, model string, opts core.Options, train workload.Set) (*estimator.Local, error) {
	db, _, err := e.IMDB()
	if err != nil {
		return nil, err
	}
	return e.trainLocalOn(db, name, model, opts, train)
}

func (e *Env) trainLocalOn(db *table.DB, name, model string, opts core.Options, train workload.Set) (*estimator.Local, error) {
	factory, err := e.regressorFactory(model)
	if err != nil {
		return nil, err
	}
	loc, err := estimator.NewLocal(db, estimator.LocalConfig{NewFeaturizer: qft.Factory(name), Opts: opts, NewRegressor: factory})
	if err != nil {
		return nil, err
	}
	return loc, loc.Train(train)
}

func (e *Env) String() string {
	return fmt.Sprintf("bench.Env(scale=%s)", e.Scale.Name)
}
