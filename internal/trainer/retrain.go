package trainer

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"

	"qfe/internal/estimator"
	"qfe/internal/exec"
	"qfe/internal/serve"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// RetrainConfig assembles a Retrainer.
type RetrainConfig struct {
	// DB is the live database; labels are recomputed against it, which is
	// the whole point of retraining under data drift.
	DB *table.DB
	// Queries is the bound training workload to relabel and refit on.
	Queries []*sqlparse.Query
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
	// Workers bounds labeling and training goroutines; 0 means one per CPU.
	Workers int
	// ActualLookup, when non-nil, is consulted per query before the exact
	// executor: a hit (a true cardinality journaled from live feedback)
	// labels the query for free. Misses fall back to CountManyResume as
	// before. The daemon wires the feedback journal's actual index here.
	ActualLookup func(q *sqlparse.Query) (int64, bool)
}

func (c *RetrainConfig) withDefaults() error {
	switch {
	case c.DB == nil:
		return fmt.Errorf("trainer: RetrainConfig.DB is required")
	case len(c.Queries) == 0:
		return fmt.Errorf("trainer: RetrainConfig.Queries is empty")
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

// jobCheckpoint is the durable progress of one retraining job. Phase
// "label" carries the partial label vector (-1 = not yet labeled); phase
// "train" additionally carries the estimator's own opaque training-progress
// payload. Labels ride along in both phases so a train-phase resume never
// relabels.
type jobCheckpoint struct {
	Phase  string  `json:"phase"` // "label" or "train"
	Labels []int64 `json:"labels"`
	Train  []byte  `json:"train,omitempty"`
}

const (
	phaseLabel = "label"
	phaseTrain = "train"

	// labelChunk is how many queries are labeled between checkpoints.
	labelChunk = 256
)

// Retrainer is one resumable retraining pipeline: relabel → refit →
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
// exact COUNT(*) execution, whatever the outcome. A canary rejection
// surfaces as an error wrapping serve.ErrCanaryRejected with nothing
// published. The checkpoint is cleared only after a successful publish: a
// rejected model's checkpoint would resume into the identical rejected
// model, so it is cleared on rejection too.
func (r *Retrainer) Run(ctx context.Context) (journalLabels int, err error) {
	ck := r.loadCheckpoint()

	labels, journalLabels, err := r.label(ctx, ck)
	if err != nil {
		return journalLabels, err
	}

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

// label recomputes ground-truth cardinalities against the live database,
// resuming from — and periodically saving — the durable label vector. hits
// counts the labels ActualLookup supplied. The column dictionaries the counts
// build are dropped on the way out: the daemon serves until the next retrain
// and does not hold them for it.
func (r *Retrainer) label(ctx context.Context, ck *jobCheckpoint) (labels []int64, hits int, err error) {
	defer r.cfg.DB.DropDictionaries()
	n := len(r.cfg.Queries)
	labels = ck.Labels
	if len(labels) != n {
		// No checkpoint, or one for a different workload: start over.
		labels = make([]int64, n)
		for i := range labels {
			labels[i] = -1
		}
		ck.Train = nil
		ck.Phase = phaseLabel
	}
	if ck.Phase == phaseTrain {
		return labels, 0, nil // labeling finished in a previous attempt
	}

	if r.cfg.ActualLookup != nil {
		// Journaled feedback first: every hit is one exact COUNT(*) the
		// labeling pass no longer pays for. Only still-unlabeled slots are
		// consulted, so resumed checkpoints keep their earlier labels.
		for i, q := range r.cfg.Queries {
			if labels[i] >= 0 {
				continue
			}
			if card, ok := r.cfg.ActualLookup(q); ok && card >= 0 {
				labels[i] = card
				hits++
			}
		}
	}

	for lo := 0; lo < n; lo += labelChunk {
		hi := lo + labelChunk
		if hi > n {
			hi = n
		}
		done := true
		for _, v := range labels[lo:hi] {
			if v < 0 {
				done = false
				break
			}
		}
		if done {
			continue
		}
		sub, lerr := exec.CountManyResume(ctx, r.cfg.DB, r.cfg.Queries[lo:hi], labels[lo:hi], r.cfg.Workers)
		copy(labels[lo:hi], sub)
		if lerr != nil {
			// Persist what did label before failing: the retry pays only for
			// the rest.
			r.saveCheckpoint(&jobCheckpoint{Phase: phaseLabel, Labels: labels})
			return nil, hits, fmt.Errorf("trainer: label queries [%d,%d): %w", lo, hi, lerr)
		}
		if hi < n {
			if err := r.saveCheckpoint(&jobCheckpoint{Phase: phaseLabel, Labels: labels}); err != nil {
				return nil, hits, err
			}
		}
	}
	return labels, hits, nil
}

// train fits a fresh estimator over the labeled workload, checkpointing
// through the estimator's resumable-progress hook. Fit progress the
// estimator cannot resume (estimator.ErrBadProgress: written under another
// -qft or -model on the same store, undecodable, or a model that fails
// validation) would fail every attempt the same way until the Controller
// quarantined the retrain, so it is dropped and the fit starts over in the
// same attempt, on the checkpoint's labels, which are still good.
func (r *Retrainer) train(ctx context.Context, ck *jobCheckpoint, labels []int64) (*estimator.Local, error) {
	set := make(workload.Set, len(r.cfg.Queries))
	for i, q := range r.cfg.Queries {
		set[i] = workload.Labeled{Query: q, Card: labels[i]}
	}
	opts := &estimator.TrainOpts{CheckpointEvery: r.cfg.CheckpointEvery}
	if r.cfg.Checkpoint != nil {
		opts.OnCheckpoint = func(payload []byte) error {
			return r.saveCheckpoint(&jobCheckpoint{Phase: phaseTrain, Labels: labels, Train: payload})
		}
	}
	if ck.Phase == phaseTrain && len(ck.Train) > 0 {
		opts.Resume = ck.Train
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
	if r.cfg.Checkpoint == nil {
		return ck
	}
	payload, ok, err := r.cfg.Checkpoint.Load()
	if err != nil || !ok {
		return ck
	}
	if json.Unmarshal(payload, ck) != nil {
		return &jobCheckpoint{}
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
