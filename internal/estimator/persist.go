package estimator

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"qfe/internal/catalog"
	"qfe/internal/core"
	"qfe/internal/ml/gb"
	"qfe/internal/ml/nn"
	"qfe/internal/table"
)

// This file implements persistence for trained estimators: a snapshot (QFT
// configuration, per-table featurization metadata, and model weights)
// serializes to a single JSON document. The point is operational: training
// happens against the data (Section 5.5.2's expensive step is obtaining
// labeled queries), while estimation only needs the model file — no table
// access at all. Local estimators are the one kind any binary writes, so
// they are the one kind that persists; the top-level "kind" field is what
// LoadEstimator checks before it restores one.

// KindLocal is the snapshot kind, stored in the documents' "kind" field.
// Documents written before the field existed carry no kind and load as
// KindLocal.
const KindLocal = "local"

// savedLocal is the on-disk format.
type savedLocal struct {
	Format    int              `json:"format"`
	Kind      string           `json:"kind,omitempty"` // "" or "local"
	QFT       string           `json:"qft"`
	Opts      core.Options     `json:"opts"`
	RawLabels bool             `json:"rawLabels"`
	ModelType string           `json:"modelType"` // "GB" or "NN"
	Metas     []core.MetaSpec  `json:"metas"`
	Models    []savedSubSchema `json:"models"`
}

type savedSubSchema struct {
	Tables  []string        `json:"tables"`
	Payload json.RawMessage `json:"payload"`
}

// FormatVersion is the snapshot format this build writes. Every SaveJSON
// output is self-identifying — the top-level envelope carries both "format"
// and "kind" — so any tool (or a future build with a different format) can
// classify a snapshot from its first bytes without kind-specific parsing.
//
// Format 2 stores a GB model as its packed forest (parallel node arrays, see
// gb.Model.MarshalJSON); format 1 stored its per-tree arenas. Loaders read
// both, because a stored generation the loader refuses is quarantined: a
// build that refused format 1 would retire every generation in an upgraded
// daemon's store. A format-1 GB payload is packed once on load and the arenas
// dropped. Other versions are rejected loudly.
const FormatVersion = 2

// readsFormat reports whether this build loads snapshots of format v.
func readsFormat(v int) bool { return v == 1 || v == FormatVersion }

// SaveJSON writes the trained estimator to w. Only GB- and NN-backed locals
// are serializable (MSCN-backed estimators are global models with their own
// lifecycle).
func (l *Local) SaveJSON(w io.Writer) error {
	s := savedLocal{
		Format:    FormatVersion,
		Kind:      KindLocal,
		QFT:       l.cfg.QFT,
		Opts:      l.cfg.Opts,
		RawLabels: l.cfg.RawLabels,
		ModelType: l.modelName,
	}
	tableNames := make([]string, 0, len(l.metas))
	for name := range l.metas {
		tableNames = append(tableNames, name)
	}
	sort.Strings(tableNames)
	for _, name := range tableNames {
		s.Metas = append(s.Metas, l.metas[name].Spec())
	}

	keys := make([]string, 0, len(l.models))
	for k := range l.models {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		lm := l.models[k]
		payload, err := marshalRegressor(lm.reg)
		if err != nil {
			return fmt.Errorf("estimator: serialize sub-schema %q: %w", k, err)
		}
		s.Models = append(s.Models, savedSubSchema{Tables: lm.tables, Payload: payload})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}

func marshalRegressor(r Regressor) (json.RawMessage, error) {
	switch reg := r.(type) {
	case *GBRegressor:
		if reg.model == nil {
			return nil, fmt.Errorf("GB model not trained")
		}
		return json.Marshal(reg.model)
	case *NNRegressor:
		if reg.model == nil {
			return nil, fmt.Errorf("NN model not trained")
		}
		return json.Marshal(reg.model)
	}
	return nil, fmt.Errorf("regressor %T is not serializable", r)
}

// LoadLocal restores a trained estimator from r. Its featurizers read the
// column stamps exec.Bind writes, so it answers Estimate (and Train may be
// called again to replace the models, e.g. after data drift) once
// ValidateSchema has mapped it onto the database its queries are bound
// against; LoadEstimator does that when given one.
func LoadLocal(r io.Reader) (*Local, error) {
	var s savedLocal
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("estimator: decode: %w", err)
	}
	if !readsFormat(s.Format) {
		return nil, fmt.Errorf("estimator: unsupported format %d (want 1 or %d)", s.Format, FormatVersion)
	}
	if s.Kind != "" && s.Kind != KindLocal {
		return nil, fmt.Errorf("estimator: snapshot kind %q is not a local estimator", s.Kind)
	}

	// Validate the QFT name eagerly, mirroring NewLocal.
	probe := core.NewTableMetaFromAttrs("probe", []core.AttrMeta{{Name: "x", Min: 0, Max: 1}}, 2)
	if _, err := core.New(s.QFT, probe, s.Opts); err != nil {
		return nil, err
	}

	var factory RegressorFactory
	switch s.ModelType {
	case "GB":
		factory = NewGBFactory(gb.DefaultConfig())
	case "NN":
		factory = NewNNFactory(nn.DefaultConfig())
	default:
		return nil, fmt.Errorf("estimator: unknown model type %q", s.ModelType)
	}

	l := &Local{
		cfg: LocalConfig{
			QFT:          s.QFT,
			Opts:         s.Opts,
			NewRegressor: factory,
			RawLabels:    s.RawLabels,
		},
		metas:     make(map[string]*core.TableMeta, len(s.Metas)),
		models:    make(map[string]*localModel, len(s.Models)),
		transform: labelTransform{raw: s.RawLabels},
		modelName: s.ModelType,
	}
	for _, spec := range s.Metas {
		meta, err := core.NewTableMetaFromSpec(spec)
		if err != nil {
			return nil, err
		}
		l.metas[spec.Name] = meta
	}
	for _, sm := range s.Models {
		lm, err := l.modelFor(sm.Tables)
		if err != nil {
			return nil, err
		}
		if err := unmarshalRegressor(lm.reg, sm.Payload); err != nil {
			return nil, fmt.Errorf("estimator: restore sub-schema %v: %w", sm.Tables, err)
		}
		if got := regressorDim(lm.reg); got != lm.dim() {
			return nil, fmt.Errorf("estimator: sub-schema %v model expects dim %d but featurizer produces %d", sm.Tables, got, lm.dim())
		}
		l.models[catalog.SubSchemaKey(lm.tables)] = lm
	}
	return l, nil
}

// LoadEstimator restores a persisted estimator snapshot after checking the
// document's "format" and "kind" fields ("" and "local" → Local; every other
// kind is refused). It returns the estimator and its kind. When db is non-nil
// the restored estimator is schema-validated against it — a serving registry
// should always pass its database so an incompatible snapshot is rejected at
// load time instead of failing per request.
func LoadEstimator(r io.Reader, db *table.DB) (Estimator, string, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, "", fmt.Errorf("estimator: read snapshot: %w", err)
	}
	var probe struct {
		Format int    `json:"format"`
		Kind   string `json:"kind"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, "", fmt.Errorf("estimator: decode: %w", err)
	}
	// Check the format before the kind so a version mismatch reads as
	// exactly that, not as some kind-specific field error downstream.
	if !readsFormat(probe.Format) {
		return nil, "", fmt.Errorf("estimator: snapshot format %d is not supported (this build reads formats 1 and %d)", probe.Format, FormatVersion)
	}
	if probe.Kind != "" && probe.Kind != KindLocal {
		return nil, "", fmt.Errorf("estimator: unknown snapshot kind %q", probe.Kind)
	}
	loc, err := LoadLocal(bytes.NewReader(data))
	if err != nil {
		return nil, "", err
	}
	if db != nil {
		if err := loc.ValidateSchema(db); err != nil {
			return nil, "", err
		}
	}
	return loc, KindLocal, nil
}

func unmarshalRegressor(r Regressor, payload json.RawMessage) error {
	switch reg := r.(type) {
	case *GBRegressor:
		var m gb.Model
		if err := json.Unmarshal(payload, &m); err != nil {
			return err
		}
		// A wrong-kind or hand-damaged payload can unmarshal "successfully"
		// into a structurally broken model (no trees, child ids outside their
		// tree); reject it here rather than panic at estimation time.
		if err := m.Validate(); err != nil {
			return err
		}
		reg.model = &m
		reg.Cfg = m.Cfg
		return nil
	case *NNRegressor:
		var m nn.Model
		if err := json.Unmarshal(payload, &m); err != nil {
			return err
		}
		reg.model = &m
		return nil
	}
	return fmt.Errorf("regressor %T is not restorable", r)
}

// regressorDim returns the input width of a regressor unmarshalRegressor has
// restored. A structurally valid model trained for another schema or another
// MaxEntriesPerAttr still has the wrong width, and Predict panics on it; the
// loaders compare it with their featurizer's so the mismatch fails the load,
// not the first estimate.
func regressorDim(r Regressor) int {
	switch reg := r.(type) {
	case *GBRegressor:
		return reg.model.Dim
	case *NNRegressor:
		return reg.model.Dim()
	}
	return -1
}
