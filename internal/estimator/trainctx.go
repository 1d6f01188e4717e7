package estimator

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"qfe/internal/catalog"
	"qfe/internal/ml/gb"
	"qfe/internal/ml/nn"
	"qfe/internal/workload"
)

// TrainOpts carries the optional checkpointing hooks of Local.TrainCtx.
// The zero value (or a nil pointer) trains without checkpoints.
type TrainOpts struct {
	// CheckpointEvery is forwarded to each sub-schema regressor's FitCtx
	// (trees for GB, epochs for NN); 0 disables mid-fit checkpoints.
	// Progress checkpoints after each completed sub-schema are emitted
	// whenever OnCheckpoint is set, independent of this cadence.
	CheckpointEvery int
	// OnCheckpoint receives each serialized progress checkpoint; a non-nil
	// return aborts training with that error.
	OnCheckpoint func(payload []byte) error
	// Resume, when non-empty, is a payload previously passed to
	// OnCheckpoint; training continues from it: completed sub-schemas are
	// restored without retraining and a sub-schema interrupted mid-fit
	// resumes from its embedded model-level checkpoint.
	Resume []byte
}

// ErrBadProgress reports that a Resume payload cannot be continued: it does
// not decode, was written for another QFT or model type, or holds a finished
// regressor of another input width, or one or a model-level checkpoint its
// regressor refuses. The payload is
// what is wrong, not the training set, so a fit without it can succeed.
var ErrBadProgress = errors.New("estimator: training progress cannot be resumed")

// localProgress is the serialized resumable state of Local.TrainCtx: the
// regressors already fitted (keyed by sub-schema), plus at most one
// model-level checkpoint for the sub-schema that was mid-fit. QFT and
// ModelType pin the progress to a configuration; a resumed run with a
// different setup rejects the payload instead of mixing models.
type localProgress struct {
	QFT       string                     `json:"qft"`
	ModelType string                     `json:"modelType"`
	Done      map[string]json.RawMessage `json:"done"`
	Current   string                     `json:"current,omitempty"`
	CurrentCk []byte                     `json:"currentCk,omitempty"`
}

// TrainCtx is Train with cancellation (checked between sub-schemas and, via
// FitCtx, inside each fit) and resumable progress checkpoints. A resumed
// run restores every completed sub-schema verbatim and continues the
// interrupted one from its last model-level checkpoint, so total work lost
// to a crash is bounded by one checkpoint interval.
func (l *Local) TrainCtx(ctx context.Context, train workload.Set, opts *TrainOpts) error {
	grouped := make(map[string]workload.Set)
	for _, lq := range train {
		key := catalog.SubSchemaKey(lq.Query.Tables)
		grouped[key] = append(grouped[key], lq)
	}
	// Deterministic training order.
	keys := make([]string, 0, len(grouped))
	for k := range grouped {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	progress := localProgress{
		QFT:       l.cfg.QFT,
		ModelType: l.modelName,
		Done:      make(map[string]json.RawMessage),
	}
	if opts != nil && len(opts.Resume) > 0 {
		var saved localProgress
		if err := json.Unmarshal(opts.Resume, &saved); err != nil {
			return fmt.Errorf("%w: decode: %w", ErrBadProgress, err)
		}
		if saved.QFT != l.cfg.QFT || saved.ModelType != l.modelName {
			return fmt.Errorf("%w: it is for %s/%s, estimator is %s/%s",
				ErrBadProgress, saved.ModelType, saved.QFT, l.modelName, l.cfg.QFT)
		}
		for key, payload := range saved.Done {
			set, ok := grouped[key]
			if !ok {
				continue // sub-schema no longer in the training set
			}
			lm, err := l.modelFor(set[0].Query.Tables)
			if err != nil {
				return err
			}
			if err := unmarshalRegressor(lm.reg, payload); err != nil {
				return fmt.Errorf("%w: restore sub-schema %q: %w", ErrBadProgress, key, err)
			}
			if got := regressorDim(lm.reg); got != lm.dim() {
				return fmt.Errorf("%w: sub-schema %q model expects dim %d but featurizer produces %d", ErrBadProgress, key, got, lm.dim())
			}
			l.models[key] = lm
			progress.Done[key] = payload
		}
		progress.Current = saved.Current
		progress.CurrentCk = saved.CurrentCk
	}

	for _, key := range keys {
		if _, restored := progress.Done[key]; restored {
			continue
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("estimator: training canceled: %w", err)
		}
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
		y := l.transform.transformAll(set.Cards())

		if err := l.fitOne(ctx, lm, key, X, y, opts, &progress); err != nil {
			return fmt.Errorf("estimator: fit sub-schema %s: %w", key, err)
		}
		l.models[key] = lm

		if opts != nil && opts.OnCheckpoint != nil {
			// Record the finished regressor so a later crash never refits it.
			// A regressor that is not serializable (any but GB and NN) is
			// simply retrained on resume.
			if payload, err := marshalRegressor(lm.reg); err == nil {
				progress.Done[key] = payload
				progress.Current, progress.CurrentCk = "", nil
				if err := emitProgress(&progress, opts.OnCheckpoint); err != nil {
					return fmt.Errorf("estimator: checkpoint after sub-schema %s: %w", key, err)
				}
			}
		}
	}
	return nil
}

// fitOne fits a single sub-schema regressor, wiring model-level checkpoints
// (when the regressor supports them) into the progress payload.
func (l *Local) fitOne(ctx context.Context, lm *localModel, key string, X [][]float64, y []float64, opts *TrainOpts, progress *localProgress) error {
	creg, ok := lm.reg.(CtxRegressor)
	if !ok {
		return lm.reg.Fit(X, y)
	}
	fo := FitOpts{}
	if opts != nil {
		fo.CheckpointEvery = opts.CheckpointEvery
		if opts.OnCheckpoint != nil {
			fo.OnCheckpoint = func(payload []byte) error {
				progress.Current = key
				progress.CurrentCk = payload
				return emitProgress(progress, opts.OnCheckpoint)
			}
		}
		if progress.Current == key {
			fo.Resume = progress.CurrentCk
		}
	}
	err := creg.FitCtx(ctx, X, y, fo)
	if errors.Is(err, gb.ErrBadCheckpoint) || errors.Is(err, nn.ErrBadCheckpoint) {
		return fmt.Errorf("%w: %w", ErrBadProgress, err)
	}
	return err
}

func emitProgress(p *localProgress, emit func([]byte) error) error {
	payload, err := json.Marshal(p)
	if err != nil {
		return err
	}
	return emit(payload)
}
