package mscn

import (
	"fmt"

	"qfe/internal/catalog"
	"qfe/internal/core"
	"qfe/internal/estimator"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// Estimator is the multi-set convolutional estimator: the original MSCN
// featurization ("MSCN w/o mods", Table 2) or the paper's per-attribute QFT
// modification ("MSCN + conj", Section 4.2), over the network, regressing
// estimator.Log2Label.
type Estimator struct {
	enc   *Encoder
	cfg   Config
	model *Model
}

// New builds an untrained estimator over the schema's tables in db. mode
// selects the predicate-set encoding.
func New(db *table.DB, schema *catalog.Schema, mode Mode, opts core.Options, cfg Config) (*Estimator, error) {
	opts = opts.Normalized()
	metas := make(map[string]*core.TableMeta, len(schema.Tables))
	for _, tn := range schema.Tables {
		t := db.Table(tn)
		if t == nil {
			return nil, fmt.Errorf("mscn: schema table %q not in database", tn)
		}
		metas[tn] = core.NewTableMeta(t, opts.MaxEntriesPerAttr)
	}
	enc, err := NewEncoder(schema, metas, mode, opts)
	if err != nil {
		return nil, err
	}
	return &Estimator{enc: enc, cfg: cfg}, nil
}

// Name implements estimator.Estimator.
func (m *Estimator) Name() string {
	switch m.enc.mode {
	case Original:
		return "MSCN w/o mods (global)"
	case Range:
		return "MSCN + range (global)"
	default:
		return "MSCN + conj (global)"
	}
}

// Train fits the set network on the whole training set.
func (m *Estimator) Train(train workload.Set) error {
	samples := make([]*Sets, len(train))
	y := make([]float64, len(train))
	for i, lq := range train {
		s, err := m.enc.Encode(lq.Query)
		if err != nil {
			return fmt.Errorf("mscn: featurize training query %d: %w", i, err)
		}
		samples[i], y[i] = s, estimator.Log2Label(float64(lq.Card))
	}
	model, err := Train(samples, y, m.cfg)
	if err != nil {
		return err
	}
	m.model = model
	return nil
}

// Estimate implements estimator.Estimator.
func (m *Estimator) Estimate(q *sqlparse.Query) (float64, error) {
	if m.model == nil {
		return 0, fmt.Errorf("mscn: estimator used before Train")
	}
	s, err := m.enc.Encode(q)
	if err != nil {
		return 0, err
	}
	return estimator.FromLog2Label(m.model.Predict(s)), nil
}

// MemoryBytes reports the trained network's footprint.
func (m *Estimator) MemoryBytes() int {
	if m.model == nil {
		return 0
	}
	return m.model.MemoryBytes()
}
