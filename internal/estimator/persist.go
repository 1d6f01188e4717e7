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
	"qfe/internal/table"
)

// This file implements persistence for trained estimators: a snapshot (QFT
// configuration, per-table featurization metadata, and model weights)
// serializes to a single JSON document. The point is operational: training
// happens against the data (Section 5.5.2's expensive step is obtaining
// labeled queries), while estimation only needs the model file — no table
// access at all. Local estimators are the one kind any binary writes, so
// they are the one kind that persists; the top-level "kind" field is what
// LoadEstimator checks before it restores one. GB is the one regressor the
// daemon serves, so it is the one a snapshot holds: its "modelType" is "GB".

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
	RawLabels bool             `json:"rawLabels"` // always false: a Local regresses on log2 labels
	ModelType string           `json:"modelType"` // "GB"
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

// SaveJSON writes the trained estimator to w. Only a GB-backed local is
// serializable.
func (l *Local) SaveJSON(w io.Writer) error {
	s := savedLocal{
		Format:    FormatVersion,
		Kind:      KindLocal,
		QFT:       l.qftName,
		Opts:      l.cfg.Opts,
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
	reg, ok := r.(*GBRegressor)
	if !ok {
		return nil, fmt.Errorf("regressor %T is not serializable (a snapshot holds a GB model)", r)
	}
	if reg.model == nil {
		return nil, fmt.Errorf("GB model not trained")
	}
	return json.Marshal(reg.model)
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

	// The paper's two encodings are served: complex, which the binaries
	// train, and conjunctive, which format-1 snapshots were written under.
	if s.QFT != "complex" && s.QFT != "conjunctive" {
		return nil, fmt.Errorf("estimator: QFT %q is not served (a snapshot holds complex or conjunctive)", s.QFT)
	}
	if s.RawLabels {
		return nil, fmt.Errorf("estimator: a model on raw labels is not served (a snapshot's model regresses on log2 labels)")
	}
	if s.ModelType != "GB" {
		return nil, fmt.Errorf("estimator: model type %q is not served (a snapshot holds a GB model)", s.ModelType)
	}

	qft := s.QFT // the closure lives as long as the estimator: it must not hold s's payloads
	newFeat := func(m *core.TableMeta, o core.Options) core.Featurizer {
		f, _ := core.New(qft, m, o) // New refuses only a name, and this one was checked above
		return f
	}
	l := newLocal(LocalConfig{NewFeaturizer: newFeat, Opts: s.Opts, NewRegressor: NewGBFactory(gb.DefaultConfig())})
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
		reg, err := unmarshalRegressor(sm.Payload)
		if err != nil {
			return nil, fmt.Errorf("estimator: restore sub-schema %v: %w", sm.Tables, err)
		}
		// A structurally valid model trained for another schema or another
		// MaxEntriesPerAttr still has the wrong width, and Predict panics on
		// it, so the mismatch fails the load, not the first estimate.
		if got := reg.model.Dim; got != lm.dim() {
			return nil, fmt.Errorf("estimator: sub-schema %v model expects dim %d but featurizer produces %d", sm.Tables, got, lm.dim())
		}
		lm.reg = reg
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

func unmarshalRegressor(payload json.RawMessage) (*GBRegressor, error) {
	var m gb.Model
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, err
	}
	// A wrong-kind or hand-damaged payload can unmarshal "successfully" into
	// a structurally broken model (no trees, child ids outside their tree);
	// reject it here rather than panic at estimation time.
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &GBRegressor{Cfg: m.Cfg, model: &m}, nil
}
