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
// access at all. Local, Global, and Hybrid estimators all persist; the
// top-level "kind" field routes LoadEstimator to the right restorer, which
// is what lets a serving registry hot-load any snapshot kind from disk.

// Snapshot kinds, stored in the documents' "kind" field. Local documents
// written before the field existed carry no kind and load as KindLocal.
const (
	KindLocal  = "local"
	KindGlobal = "global"
	KindHybrid = "hybrid"
)

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

// FormatVersion is the snapshot format this build writes and reads. Every
// SaveJSON output is self-identifying — the top-level envelope carries both
// "format" and "kind" — so any tool (or a future build with a different
// format) can classify a snapshot from its first bytes without kind-specific
// parsing. Loaders reject other versions loudly.
const FormatVersion = 1

// currentFormat guards against silently loading incompatible files.
const currentFormat = FormatVersion

// SaveJSON writes the trained estimator to w. Only GB- and NN-backed locals
// are serializable (MSCN-backed estimators are global models with their own
// lifecycle).
func (l *Local) SaveJSON(w io.Writer) error {
	s := savedLocal{
		Format:    currentFormat,
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

// LoadLocal restores a trained estimator from r. The returned estimator
// answers Estimate immediately; Train may be called again to replace the
// models (e.g. after data drift).
func LoadLocal(r io.Reader) (*Local, error) {
	var s savedLocal
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("estimator: decode: %w", err)
	}
	if s.Format != currentFormat {
		return nil, fmt.Errorf("estimator: unsupported format %d (want %d)", s.Format, currentFormat)
	}
	if s.Kind != "" && s.Kind != KindLocal {
		return nil, fmt.Errorf("estimator: snapshot kind %q is not a local estimator (use LoadEstimator)", s.Kind)
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

// savedGlobal is the on-disk format for global estimators: the schema (its
// tables and foreign-key edges), every table's featurization metadata, and
// the single model's weights.
type savedGlobal struct {
	Format    int                  `json:"format"`
	Kind      string               `json:"kind"` // "global"
	QFT       string               `json:"qft"`
	Opts      core.Options         `json:"opts"`
	RawLabels bool                 `json:"rawLabels"`
	ModelType string               `json:"modelType"` // "GB" or "NN"
	Tables    []string             `json:"tables"`
	FKs       []catalog.ForeignKey `json:"fks,omitempty"`
	Metas     []core.MetaSpec      `json:"metas"`
	Payload   json.RawMessage      `json:"payload"`
}

// SaveJSON writes the trained global estimator to w. Only GB- and NN-backed
// globals are serializable (the MSCN set network has its own lifecycle).
func (g *Global) SaveJSON(w io.Writer) error {
	payload, err := marshalRegressor(g.reg)
	if err != nil {
		return fmt.Errorf("estimator: serialize global model: %w", err)
	}
	s := savedGlobal{
		Format:    currentFormat,
		Kind:      KindGlobal,
		QFT:       g.qft,
		Opts:      g.opts,
		RawLabels: g.transform.raw,
		ModelType: g.reg.Name(),
		Tables:    g.feat.Schema.Tables,
		FKs:       g.feat.Schema.FKs,
		Payload:   payload,
	}
	for _, tn := range g.feat.Schema.Tables {
		s.Metas = append(s.Metas, g.metas[tn].Spec())
	}
	return json.NewEncoder(w).Encode(s)
}

// LoadGlobal restores a trained global estimator from r. Like LoadLocal, the
// result answers Estimate immediately with no table access.
func LoadGlobal(r io.Reader) (*Global, error) {
	var s savedGlobal
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("estimator: decode: %w", err)
	}
	if s.Format != currentFormat {
		return nil, fmt.Errorf("estimator: unsupported format %d (want %d)", s.Format, currentFormat)
	}
	if s.Kind != KindGlobal {
		return nil, fmt.Errorf("estimator: snapshot kind %q is not a global estimator", s.Kind)
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
	metas := make(map[string]*core.TableMeta, len(s.Metas))
	for _, spec := range s.Metas {
		meta, err := core.NewTableMetaFromSpec(spec)
		if err != nil {
			return nil, err
		}
		metas[spec.Name] = meta
	}
	schema := &catalog.Schema{Tables: s.Tables, FKs: s.FKs}
	gf, err := core.NewGlobalFeaturizer(schema, metas, s.QFT, s.Opts)
	if err != nil {
		return nil, err
	}
	g := &Global{
		feat:      gf,
		reg:       factory(),
		transform: labelTransform{raw: s.RawLabels},
		qft:       s.QFT,
		opts:      s.Opts,
		metas:     metas,
		vecPool:   newVecPool(gf.Dim(), 0),
	}
	if err := unmarshalRegressor(g.reg, s.Payload); err != nil {
		return nil, fmt.Errorf("estimator: restore global model: %w", err)
	}
	if got := regressorDim(g.reg); got != gf.Dim() {
		return nil, fmt.Errorf("estimator: global model expects dim %d but featurizer produces %d", got, gf.Dim())
	}
	return g, nil
}

// savedHybrid is the on-disk format for hybrid estimators: the embedded
// local snapshot, which sub-schemas kept a model, and the pruning
// configuration. The fallback is stored by kind and reconstructed against
// the serving database at load time (System-R style baselines read table
// statistics, not weights).
type savedHybrid struct {
	Format           int             `json:"format"`
	Kind             string          `json:"kind"`     // "hybrid"
	Fallback         string          `json:"fallback"` // "independence"
	MaxQuantileError float64         `json:"maxQuantileError"`
	Quantile         float64         `json:"quantile"`
	Modeled          []string        `json:"modeled"`
	Local            json.RawMessage `json:"local"`
}

// SaveJSON writes the trained hybrid estimator to w. Only the Independence
// fallback is serializable — it is the System-R baseline the pruning rule is
// defined against and carries no state beyond the database it reads.
func (h *Hybrid) SaveJSON(w io.Writer) error {
	if _, ok := h.fallback.(*Independence); !ok {
		return fmt.Errorf("estimator: hybrid fallback %T is not serializable (only *Independence)", h.fallback)
	}
	var lb bytes.Buffer
	if err := h.local.SaveJSON(&lb); err != nil {
		return err
	}
	modeled := make([]string, 0, len(h.modeled))
	for k, on := range h.modeled {
		if on {
			modeled = append(modeled, k)
		}
	}
	sort.Strings(modeled)
	s := savedHybrid{
		Format:           currentFormat,
		Kind:             KindHybrid,
		Fallback:         "independence",
		MaxQuantileError: h.cfg.MaxQuantileError,
		Quantile:         h.cfg.Quantile,
		Modeled:          modeled,
		Local:            json.RawMessage(bytes.TrimSpace(lb.Bytes())),
	}
	return json.NewEncoder(w).Encode(s)
}

// LoadHybrid restores a trained hybrid estimator from r. db is required: the
// pruned sub-schemas route to the Independence fallback, which estimates
// from db's table statistics. The embedded local snapshot is schema-checked
// against db.
func LoadHybrid(r io.Reader, db *table.DB) (*Hybrid, error) {
	var s savedHybrid
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("estimator: decode: %w", err)
	}
	if s.Format != currentFormat {
		return nil, fmt.Errorf("estimator: unsupported format %d (want %d)", s.Format, currentFormat)
	}
	if s.Kind != KindHybrid {
		return nil, fmt.Errorf("estimator: snapshot kind %q is not a hybrid estimator", s.Kind)
	}
	if s.Fallback != "independence" {
		return nil, fmt.Errorf("estimator: unknown hybrid fallback %q", s.Fallback)
	}
	if db == nil {
		return nil, fmt.Errorf("estimator: a hybrid snapshot needs a database for its fallback")
	}
	if s.MaxQuantileError < 1 {
		return nil, fmt.Errorf("estimator: hybrid MaxQuantileError = %v, want >= 1", s.MaxQuantileError)
	}
	if s.Quantile < 0 || s.Quantile > 1 {
		return nil, fmt.Errorf("estimator: hybrid Quantile = %v, want in [0, 1]", s.Quantile)
	}
	loc, err := LoadLocal(bytes.NewReader(s.Local))
	if err != nil {
		return nil, err
	}
	if err := loc.ValidateSchema(db); err != nil {
		return nil, err
	}
	modeled := make(map[string]bool, len(s.Modeled))
	for _, k := range s.Modeled {
		if _, ok := loc.models[k]; !ok {
			return nil, fmt.Errorf("estimator: hybrid marks sub-schema %q as modeled but the local snapshot has no model for it", k)
		}
		modeled[k] = true
	}
	cfg := HybridConfig{Local: loc.cfg, MaxQuantileError: s.MaxQuantileError, Quantile: s.Quantile}
	return &Hybrid{local: loc, fallback: &Independence{DB: db}, cfg: cfg, modeled: modeled}, nil
}

// LoadEstimator restores any persisted estimator snapshot, dispatching on
// the document's "kind" field ("" and "local" → Local, "global" → Global,
// "hybrid" → Hybrid). It returns the estimator and its kind. When db is
// non-nil the restored estimator is schema-validated against it — a serving
// registry should always pass its database so an incompatible snapshot is
// rejected at load time instead of failing per request; hybrids require db
// for their fallback regardless.
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
	// Check the format before dispatching so a version mismatch reads as
	// exactly that, not as some kind-specific field error downstream.
	if probe.Format != FormatVersion {
		return nil, "", fmt.Errorf("estimator: snapshot format %d is not supported (this build reads format %d)", probe.Format, FormatVersion)
	}
	switch probe.Kind {
	case "", KindLocal:
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
	case KindGlobal:
		g, err := LoadGlobal(bytes.NewReader(data))
		if err != nil {
			return nil, "", err
		}
		if db != nil {
			if err := g.ValidateSchema(db); err != nil {
				return nil, "", err
			}
		}
		return g, KindGlobal, nil
	case KindHybrid:
		h, err := LoadHybrid(bytes.NewReader(data), db)
		if err != nil {
			return nil, "", err
		}
		return h, KindHybrid, nil
	}
	return nil, "", fmt.Errorf("estimator: unknown snapshot kind %q", probe.Kind)
}

func unmarshalRegressor(r Regressor, payload json.RawMessage) error {
	switch reg := r.(type) {
	case *GBRegressor:
		var m gb.Model
		if err := json.Unmarshal(payload, &m); err != nil {
			return err
		}
		// A wrong-kind or hand-damaged payload can unmarshal "successfully"
		// into a structurally broken model (no trees, dangling child
		// indices); reject it here rather than panic at estimation time.
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
