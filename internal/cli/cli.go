// Package cli holds the flag validation and environment-building plumbing
// shared by the command-line entry points (cardest, benchrunner, cardestd).
// The commands differ in what they do with a trained estimator — one-shot
// evaluation, paper-table regeneration, long-lived serving — but they build
// the synthetic forest environment and configure training identically, so
// that logic lives here once.
package cli

import (
	"fmt"
	"time"

	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/ml/gb"
	"qfe/internal/ml/nn"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// ValidateWorkers rejects negative -workers values with a clear error before
// they reach the training configs. (internal/parallel treats every value
// below 1 as "one worker per CPU", so a typo like -workers -4 would silently
// mean "all cores"; surfacing it is kinder.)
func ValidateWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 means one worker per logical CPU), got %d", n)
	}
	return nil
}

// ValidateModel rejects a -model no factory builds while the flags are being
// validated, so a typo costs nothing: without it the name is first looked at
// after the table is built and the workload labeled.
func ValidateModel(name string) error {
	if _, err := estimator.FactoryByName(name, gb.Config{}, nn.Config{}); err != nil {
		return fmt.Errorf("-model: %w", err)
	}
	return nil
}

// ForestSpec describes the synthetic forest environment the CLIs share:
// dataset shape, workload style (derived from the QFT), and sizes.
type ForestSpec struct {
	Rows   int   // forest table rows
	TrainN int   // training queries; TestN more are generated for held-out use
	TestN  int   // held-out queries appended after the training split
	Seed   int64 // generation seed for both data and workload
	QFT    string
}

// Validate checks the spec before any expensive work happens.
func (s ForestSpec) Validate() error {
	if s.Rows < 1 {
		return fmt.Errorf("-rows must be >= 1, got %d", s.Rows)
	}
	if s.TrainN < 1 {
		return fmt.Errorf("-train must be >= 1, got %d", s.TrainN)
	}
	if s.TestN < 0 {
		return fmt.Errorf("test query count must be >= 0, got %d", s.TestN)
	}
	return nil
}

// ForestEnv is the built environment: the database plus a labeled train/test
// workload split.
type ForestEnv struct {
	DB    *table.DB
	Table *table.Table
	Train workload.Set
	Test  workload.Set

	// DataTime and LabelTime split the build for the boot log: generating
	// the table, then drawing and labeling the Train and Test queries.
	// Labeling builds the dictionary of every column a query names, once:
	// DictBuilt of them, DictTime in all, so LabelTime splits into build and
	// evaluate.
	DataTime, LabelTime time.Duration
	DictBuilt           int
	DictTime            time.Duration
}

// BuildForestEnv builds the forest dataset and generates + labels the
// workload (mixed AND/OR queries for the "complex" QFT, conjunctive
// otherwise), exactly as the paper's single-table evaluation does.
func BuildForestEnv(spec ForestSpec) (*ForestEnv, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	forest, err := dataset.Forest(dataset.ForestConfig{Rows: spec.Rows, QuantAttrs: 12, BinaryAttrs: 4, Seed: spec.Seed})
	if err != nil {
		return nil, err
	}
	db := table.NewDB()
	db.MustAdd(forest)
	dataTime := time.Since(start)

	count := spec.TrainN + spec.TestN
	var set workload.Set
	if spec.QFT == "complex" {
		set, err = workload.Mixed(forest, workload.MixedConfig{
			ConjConfig:  workload.ConjConfig{Count: count, MaxAttrs: 8, MaxNotEquals: 5, Seed: spec.Seed},
			MaxBranches: 3,
		})
	} else {
		set, err = workload.Conjunctive(forest, workload.ConjConfig{
			Count: count, MaxAttrs: 8, MaxNotEquals: 5, Seed: spec.Seed,
		})
	}
	if err != nil {
		return nil, err
	}
	labelTime := time.Since(start) - dataTime
	train, test := set.Split(spec.TrainN)
	dictBuilt, dictTime := forest.DictionaryBuilds()
	return &ForestEnv{
		DB: db, Table: forest, Train: train, Test: test,
		DataTime: dataTime, LabelTime: labelTime,
		DictBuilt: dictBuilt, DictTime: dictTime,
	}, nil
}

// TrainSpec configures a local estimator build shared by cardest and
// cardestd's boot-training path.
type TrainSpec struct {
	QFT     string
	Model   string // "GB" or "NN" (estimator.FactoryByName)
	Entries int    // per-attribute feature entries (n)
	Workers int    // training goroutines (0 = one per CPU)
}

// NewLocalEstimator builds the (untrained) local estimator for the spec,
// wiring the worker count into the model configs. Callers run Train.
func NewLocalEstimator(db *table.DB, spec TrainSpec) (*estimator.Local, error) {
	if err := ValidateWorkers(spec.Workers); err != nil {
		return nil, err
	}
	gbCfg := gb.DefaultConfig()
	gbCfg.Workers = spec.Workers
	nnCfg := nn.DefaultConfig()
	nnCfg.Workers = spec.Workers
	factory, err := estimator.FactoryByName(spec.Model, gbCfg, nnCfg)
	if err != nil {
		return nil, err
	}
	return estimator.NewLocal(db, estimator.LocalConfig{
		QFT:          spec.QFT,
		Opts:         core.Options{MaxEntriesPerAttr: spec.Entries, AttrSel: true},
		NewRegressor: factory,
	})
}
