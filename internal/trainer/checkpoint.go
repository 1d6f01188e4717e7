// Package trainer closes the self-healing loop around the serving stack:
// when internal/drift detects that the live model has gone stale, the
// Controller starts a retrain that refits the estimator on the boot's
// labeled training set, with every label the feedback journal knows a true
// cardinality for replaced by it, and offers the result to the
// serve.Lifecycle canary gate. The table never changes after boot, so
// journaled actuals are the only new truth a retrain has: with none that
// match a training query, it refits the boot model (a GB one byte for
// byte). Nothing in this package publishes a model directly — a retrained
// model that cannot beat the canary never takes traffic, exactly like any
// other candidate.
//
// Retraining is crash-safe: every model family's epoch/tree loop
// periodically persists CRC-framed checkpoints, with the labels it fits on,
// through internal/store's fsync+rename machinery, so a crashed or SIGTERM'd
// retrain resumes from its last durable checkpoint instead of restarting.
// The Controller owns the one goroutine a retrain runs on — stopped through
// a context and joined by Close — and restarts a failed attempt after an
// exponential backoff, with a poison-pill counter that quarantines the
// retrain after repeated failures; a canary rejection is never retried.
package trainer

import (
	"qfe/internal/store"
)

// Checkpointer persists retraining progress durably. Save must be atomic:
// after a crash, Load returns either the previous payload or the new one,
// never a torn mix. Implementations must treat a failed Save as "nothing
// saved".
type Checkpointer interface {
	// Save durably replaces the checkpoint.
	Save(payload []byte) error
	// Load returns the last durably saved payload; ok is false when none
	// exists. A non-nil error with ok == false means a checkpoint was
	// present but unreadable — callers log it and start fresh.
	Load() (payload []byte, ok bool, err error)
	// Clear removes the checkpoint; clearing a missing checkpoint is not an
	// error.
	Clear() error
}

// storeCheckpointer adapts a named store checkpoint slot to Checkpointer.
// It inherits the store's crash-safety: payloads are CRC-framed with the
// PayloadCheckpoint kind, written to a temp file, fsync'd, renamed into
// place, and the directory synced; torn temps are swept at the next Open.
type storeCheckpointer struct {
	st   *store.Store
	name string
}

// NewStoreCheckpointer returns a Checkpointer backed by st's checkpoint
// namespace under the given name (subject to store checkpoint-name rules).
func NewStoreCheckpointer(st *store.Store, name string) Checkpointer {
	return &storeCheckpointer{st: st, name: name}
}

func (c *storeCheckpointer) Save(payload []byte) error {
	return c.st.PutCheckpoint(c.name, payload)
}

func (c *storeCheckpointer) Load() ([]byte, bool, error) {
	return c.st.ReadCheckpoint(c.name)
}

func (c *storeCheckpointer) Clear() error {
	return c.st.ClearCheckpoint(c.name)
}
