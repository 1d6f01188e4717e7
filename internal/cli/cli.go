// Package cli holds the flag validation and environment-building plumbing
// shared by the command-line entry points (cardest, benchrunner, cardestd).
// The commands differ in what they do with a trained estimator — one-shot
// evaluation, paper-table regeneration, long-lived serving — but they build
// the synthetic forest environment, configure training and wrap a served
// model in the degradation chain identically, so that logic lives here once.
package cli

import (
	"cmp"
	"fmt"
	"time"

	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/ml/gb"
	"qfe/internal/resilience"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// Chain wraps learned in the one degradation chain every binary serves:
// learned → independence (the Postgres-style baseline), with the row-count
// heuristic as the last resort. ext9 (EXPERIMENTS.md) scored each stage alone;
// Bernoulli sampling lost to independence wherever it answers, refuses joins,
// and is not in it. A call is bounded by the deadline its context carries, if
// any (the daemon's request deadline); the chain sets none of its own.
func Chain(db *table.DB, learned estimator.Estimator) *resilience.Resilient {
	return resilience.NewResilient(resilience.Config{LastResort: resilience.RowCount{DB: db}},
		resilience.Stage{Name: "learned", Est: learned},
		resilience.Stage{Name: "independence", Est: &estimator.Independence{DB: db}},
	)
}

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

// ValidateModel rejects a -model other than GB while the flags are being
// validated, so a typo costs nothing. GB is the one regressor the binaries
// build and serve: ext9 measured it beating the feed-forward network, which
// only the experiment harness trains, on accuracy, inference CPU and
// training time.
func ValidateModel(name string) error {
	if name != "GB" && name != "gb" {
		return fmt.Errorf("-model: unknown model %q (want GB)", name)
	}
	return nil
}

// ValidateQFT rejects a -qft other than complex, as ValidateModel does a
// -model: Limited Disjunction Encoding, the one QFT the binaries build,
// encodes what Universal Conjunction Encoding does, to the same vector, and
// ORs besides; the paper's baselines are the harness's (internal/bench/qft).
func ValidateQFT(name string) error {
	if name != "complex" {
		return fmt.Errorf("-qft: unknown QFT %q (want complex)", name)
	}
	return nil
}

// ForestSpec describes the synthetic forest environment the CLIs share:
// dataset shape and sizes.
type ForestSpec struct {
	Rows   int    // forest table rows
	TrainN int    // training queries; TestN more are generated for held-out use
	TestN  int    // held-out queries appended after the training split
	Seed   int64  // generation seed for both data and workload
	QFT    string // "complex" or empty; anything else is refused
}

// Validate checks the spec before any expensive work happens.
func (s ForestSpec) Validate() error {
	if err := ValidateQFT(cmp.Or(s.QFT, "complex")); err != nil {
		return err
	}
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
	// the table, each column analyzed as it is built, then drawing and
	// labeling the Train and Test queries.
	DataTime, LabelTime time.Duration
}

// BuildForestEnv builds the forest dataset and generates + labels the mixed
// AND/OR workload the complex QFT is trained on, exactly as the paper's
// single-table evaluation does.
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

	set, err := workload.Mixed(forest, workload.MixedConfig{
		ConjConfig:  workload.ConjConfig{Count: spec.TrainN + spec.TestN, MaxAttrs: 8, MaxNotEquals: 5, Seed: spec.Seed},
		MaxBranches: 3,
	})
	if err != nil {
		return nil, err
	}
	labelTime := time.Since(start) - dataTime
	train, test := set.Split(spec.TrainN)
	return &ForestEnv{
		DB: db, Table: forest, Train: train, Test: test,
		DataTime: dataTime, LabelTime: labelTime,
	}, nil
}

// TrainSpec configures a local estimator build shared by cardest and
// cardestd's boot-training path: GB over complex, the one configuration the
// binaries train.
type TrainSpec struct {
	QFT     string // "complex" or empty; anything else is refused
	Model   string // "GB" or empty; anything else is refused
	Entries int    // per-attribute feature entries (n)
	Workers int    // training goroutines (0 = one per CPU)
}

// NewLocalEstimator builds the (untrained) GB + complex local estimator for
// the spec, wiring the worker count into the model config. Callers run Train.
func NewLocalEstimator(db *table.DB, spec TrainSpec) (*estimator.Local, error) {
	if err := ValidateQFT(cmp.Or(spec.QFT, "complex")); err != nil {
		return nil, err
	}
	if err := ValidateModel(cmp.Or(spec.Model, "GB")); err != nil {
		return nil, err
	}
	if err := ValidateWorkers(spec.Workers); err != nil {
		return nil, err
	}
	cfg := gb.DefaultConfig()
	cfg.Workers = spec.Workers
	return estimator.NewLocal(db, estimator.LocalConfig{
		NewFeaturizer: func(m *core.TableMeta, o core.Options) core.Featurizer { return core.NewComplex(m, o) },
		Opts:          core.Options{MaxEntriesPerAttr: spec.Entries, AttrSel: true},
		NewRegressor:  estimator.NewGBFactory(cfg),
	})
}
