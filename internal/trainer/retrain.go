package trainer

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"slices"

	"qfe/internal/estimator"
	"qfe/internal/serve"
	"qfe/internal/sqlparse"
	"qfe/internal/workload"
)

// RetrainConfig assembles a Retrainer.
type RetrainConfig struct {
	// Train is the boot's labeled training set, bound queries and their true
	// cardinalities. The daemon's table never changes after boot, so these
	// labels stay true: a retrain refits on them, each overwritten by the
	// actual ActualLookup knows for its query.
	Train workload.Set
	// NewEstimator builds a fresh, untrained local estimator per attempt.
	NewEstimator func() (*estimator.Local, error)
	// Lifecycle is the only path to traffic: the retrained model publishes
	// through its canary gate, MakeDefault on admission. Required.
	Lifecycle *serve.Lifecycle
	// Name is the registry name to publish under. Default "retrained".
	Name string
	// Checkpoint, when non-nil, makes the job resumable across crashes.
	Checkpoint Checkpointer
	// CheckpointEvery is the model-level checkpoint cadence (trees for GB,
	// epochs for NN). Default 10.
	CheckpointEvery int
	// ActualLookup, when non-nil, is consulted per training query: a hit (a
	// true cardinality journaled from live feedback) replaces the query's
	// boot label. It is the only new truth a retrain can learn. The daemon
	// wires the feedback journal's actual index here.
	ActualLookup func(q *sqlparse.Query) (int64, bool)
}

func (c *RetrainConfig) withDefaults() error {
	switch {
	case len(c.Train) == 0:
		return fmt.Errorf("trainer: RetrainConfig.Train is empty")
	case c.NewEstimator == nil:
		return fmt.Errorf("trainer: RetrainConfig.NewEstimator is required")
	case c.Lifecycle == nil:
		return fmt.Errorf("trainer: RetrainConfig.Lifecycle is required")
	}
	if c.Name == "" {
		c.Name = "retrained"
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 10
	}
	return nil
}

// jobCheckpoint is the durable progress of one retraining job: the label
// vector its fit runs on and the estimator's own opaque fit progress. It is
// written only from inside the fit, so it always carries both. (Earlier
// builds also wrote a "phase" field, and label-phase checkpoints with no fit
// progress and -1 for every query not yet counted; the first decodes into
// this struct as a resumable checkpoint, the second is ignored.)
type jobCheckpoint struct {
	Labels []int64 `json:"labels"`
	Train  []byte  `json:"train,omitempty"`
}

// Retrainer is one resumable retraining pipeline: label → refit →
// canary-gated publish. Run is the Controller's Retrain function; a
// Retrainer is stateless between runs except for its durable checkpoint.
type Retrainer struct {
	cfg RetrainConfig
}

// NewRetrainer validates cfg and returns a Retrainer.
func NewRetrainer(cfg RetrainConfig) (*Retrainer, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	return &Retrainer{cfg: cfg}, nil
}

// Run executes one retraining attempt end to end: the admitted model is the
// registry default under cfg.Name when it returns nil. journalLabels is how
// many training labels this attempt took from journaled feedback instead of
// the boot's, whatever the outcome. A canary rejection surfaces as an error
// wrapping serve.ErrCanaryRejected with nothing published. The checkpoint is
// cleared only after a successful publish: a rejected model's checkpoint
// would resume into the identical rejected model, so it is cleared on
// rejection too.
func (r *Retrainer) Run(ctx context.Context) (journalLabels int, err error) {
	ck := r.loadCheckpoint()
	labels, journalLabels := r.label(ck)
	loc, err := r.train(ctx, ck, labels)
	if err != nil {
		return journalLabels, err
	}

	var snap bytes.Buffer
	if err := loc.SaveJSON(&snap); err != nil {
		return journalLabels, fmt.Errorf("trainer: serialize retrained model: %w", err)
	}
	_, err = r.cfg.Lifecycle.Publish(ctx, serve.PublishSpec{
		Name:        r.cfg.Name,
		Est:         loc,
		Kind:        estimator.KindLocal,
		Source:      "retrain",
		Snapshot:    snap.Bytes(),
		MakeDefault: true,
	})
	if err == nil || errors.Is(err, serve.ErrCanaryRejected) {
		// Resuming a rejected model's checkpoint would deterministically
		// rebuild the same rejected model; drop it so the next attempt
		// starts fresh.
		r.clearCheckpoint()
	}
	return journalLabels, err
}

// label returns the labels this attempt fits on and how many of them
// journaled feedback supplied. A checkpoint with fit progress resumes on the
// labels its fit started from, so a resumed fit never mixes two label sets
// and a lookup made after the checkpoint was written changes nothing.
// Otherwise each label is the boot's, overwritten by the actual ActualLookup
// knows for its query, and a checkpoint without fit progress is ignored.
func (r *Retrainer) label(ck *jobCheckpoint) (labels []int64, hits int) {
	if len(ck.Train) > 0 && len(ck.Labels) == len(r.cfg.Train) {
		return ck.Labels, 0
	}
	ck.Train = nil // no checkpoint, one without fit progress, or one for another workload
	labels = make([]int64, len(r.cfg.Train))
	for i, l := range r.cfg.Train {
		labels[i] = l.Card
		if r.cfg.ActualLookup == nil {
			continue
		}
		if card, ok := r.cfg.ActualLookup(l.Query); ok && card >= 0 {
			labels[i] = card
			hits++
		}
	}
	return labels, hits
}

// train fits a fresh estimator over the training set under labels,
// checkpointing through the estimator's resumable-progress hook. Fit progress
// the estimator cannot resume (estimator.ErrBadProgress: written under another
// -qft or -model on the same store, undecodable, or a model that fails
// validation) would fail every attempt the same way until the Controller
// quarantined the retrain, so it is dropped and the fit starts over in the
// same attempt, on the checkpoint's labels, which are still good.
func (r *Retrainer) train(ctx context.Context, ck *jobCheckpoint, labels []int64) (*estimator.Local, error) {
	set := slices.Clone(r.cfg.Train)
	for i := range set {
		set[i].Card = labels[i]
	}
	opts := &estimator.TrainOpts{CheckpointEvery: r.cfg.CheckpointEvery, Resume: ck.Train}
	if r.cfg.Checkpoint != nil {
		opts.OnCheckpoint = func(payload []byte) error {
			return r.saveCheckpoint(&jobCheckpoint{Labels: labels, Train: payload})
		}
	}
	loc, err := r.fit(ctx, set, opts)
	if errors.Is(err, estimator.ErrBadProgress) {
		log.Printf("trainer: refitting from the labels without the training checkpoint: %v", err)
		opts.Resume = nil
		loc, err = r.fit(ctx, set, opts)
	}
	return loc, err
}

// fit trains one fresh estimator.
func (r *Retrainer) fit(ctx context.Context, set workload.Set, opts *estimator.TrainOpts) (*estimator.Local, error) {
	loc, err := r.cfg.NewEstimator()
	if err != nil {
		return nil, fmt.Errorf("trainer: build estimator: %w", err)
	}
	if err := loc.TrainCtx(ctx, set, opts); err != nil {
		return nil, fmt.Errorf("trainer: fit: %w", err)
	}
	return loc, nil
}

// loadCheckpoint returns the durable progress, or empty progress when there
// is none (or it is unreadable — corruption means start fresh, never fail).
func (r *Retrainer) loadCheckpoint() *jobCheckpoint {
	ck := &jobCheckpoint{}
	if r.cfg.Checkpoint != nil {
		if payload, ok, err := r.cfg.Checkpoint.Load(); err == nil && ok && json.Unmarshal(payload, ck) != nil {
			return &jobCheckpoint{}
		}
	}
	return ck
}

func (r *Retrainer) saveCheckpoint(ck *jobCheckpoint) error {
	if r.cfg.Checkpoint == nil {
		return nil
	}
	payload, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("trainer: encode checkpoint: %w", err)
	}
	if err := r.cfg.Checkpoint.Save(payload); err != nil {
		return fmt.Errorf("trainer: save checkpoint: %w", err)
	}
	return nil
}

func (r *Retrainer) clearCheckpoint() {
	if r.cfg.Checkpoint != nil {
		r.cfg.Checkpoint.Clear() //nolint:errcheck // best-effort; a stale checkpoint only costs a resume
	}
}
