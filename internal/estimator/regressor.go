package estimator

import "qfe/internal/ml/gb"

// Regressor is the model-agnostic fitting interface the QFT layer plugs
// into — the paper's point that its featurizations are model-independent
// (Section 4) made concrete. GBRegressor is the one the daemon serves and
// the one a snapshot holds; the harness plugs its feed-forward network and
// linear regression in through the same interface. The harness's MSCN has
// its own path because its input is a set structure rather than a flat
// vector.
type Regressor interface {
	// Name is the paper's model abbreviation ("GB", "NN", "LR").
	Name() string
	// Fit trains on row-major features X and targets y.
	Fit(X [][]float64, y []float64) error
	// Predict returns the regression output for one feature vector.
	Predict(x []float64) float64
	// MemoryBytes reports the trained model's approximate resident size
	// (Section 5.7 accounting).
	MemoryBytes() int
}

// RegressorFactory builds a fresh, untrained Regressor. Local-model
// estimators call it once per sub-schema.
type RegressorFactory func() Regressor

// GBRegressor adapts gb.Model to the Regressor interface.
type GBRegressor struct {
	Cfg   gb.Config
	model *gb.Model
}

// NewGBFactory returns a factory producing gradient-boosting regressors
// with the given configuration.
func NewGBFactory(cfg gb.Config) RegressorFactory {
	return func() Regressor { return &GBRegressor{Cfg: cfg} }
}

// Name implements Regressor.
func (r *GBRegressor) Name() string { return "GB" }

// Fit implements Regressor.
func (r *GBRegressor) Fit(X [][]float64, y []float64) error {
	m, err := gb.Train(X, y, r.Cfg)
	if err != nil {
		return err
	}
	r.model = m
	return nil
}

// Predict implements Regressor.
func (r *GBRegressor) Predict(x []float64) float64 {
	if r.model == nil {
		panic("estimator: GBRegressor used before Fit")
	}
	return r.model.Predict(x)
}

// MemoryBytes implements Regressor.
func (r *GBRegressor) MemoryBytes() int {
	if r.model == nil {
		return 0
	}
	return r.model.MemoryBytes()
}
