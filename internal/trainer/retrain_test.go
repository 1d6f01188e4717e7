package trainer

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"qfe/internal/core"
	"qfe/internal/estimator"
	"qfe/internal/ml/gb"
	"qfe/internal/serve"
	"qfe/internal/sqlparse"
	"qfe/internal/store"
)

// memCheckpointer keeps the checkpoint in memory and, once saves has counted
// down to zero, fails every further Save: the disk filling up mid-fit.
type memCheckpointer struct {
	payload []byte
	saves   int
}

var errDiskFull = errors.New("disk full")

func (c *memCheckpointer) Save(payload []byte) error {
	if c.saves == 0 {
		return errDiskFull
	}
	c.saves--
	c.payload = append([]byte(nil), payload...)
	return nil
}

func (c *memCheckpointer) Load() ([]byte, bool, error) { return c.payload, c.payload != nil, nil }

func (c *memCheckpointer) Clear() error {
	c.payload = nil
	return nil
}

// TestRetrainResumesOnDifferentWorkerCount: a job that checkpointed mid-fit
// on one worker and is restarted with three — the daemon came back with a
// different -workers, or on a machine with more cores — resumes and
// publishes. The checkpoint survives every failed attempt, so refusing it
// over the worker count would fail every retry the same way until the
// supervisor gave up.
func TestRetrainResumesOnDifferentWorkerCount(t *testing.T) {
	env := buildChaosEnv(t)
	modelStore, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	lc, err := serve.NewLifecycle(serve.LifecycleConfig{
		Registry: reg,
		Store:    modelStore,
		DB:       env.db,
		Canary:   serve.CanaryConfig{Workload: env.test, MaxMedian: 100, MaxP95: 1e5},
	})
	if err != nil {
		t.Fatal(err)
	}

	cfg := gb.DefaultConfig()
	cfg.NumTrees = 40
	cfg.MaxDepth = 5
	cfg.Seed = 1
	cfg.Workers = 1
	qs := make([]*sqlparse.Query, len(env.train))
	for i := range env.train {
		qs[i] = env.train[i].Query
	}
	ck := &memCheckpointer{saves: 3}
	ret, err := NewRetrainer(RetrainConfig{
		DB:      env.db,
		Queries: qs,
		NewEstimator: func() (*estimator.Local, error) {
			return estimator.NewLocal(env.db, estimator.LocalConfig{
				QFT:          "conjunctive",
				Opts:         core.Options{MaxEntriesPerAttr: 24, AttrSel: true},
				NewRegressor: estimator.NewGBFactory(cfg),
			})
		},
		Lifecycle:       lc,
		Checkpoint:      ck,
		CheckpointEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := ret.Run(context.Background()); !errors.Is(err, errDiskFull) {
		t.Fatalf("first attempt: error %v, want the failed checkpoint save", err)
	}
	var saved jobCheckpoint
	if err := json.Unmarshal(ck.payload, &saved); err != nil || saved.Phase != phaseTrain || len(saved.Train) == 0 {
		t.Fatalf("after the first attempt: checkpoint phase %q with %d bytes of fit progress (decode error %v), want a mid-fit one",
			saved.Phase, len(saved.Train), err)
	}

	cfg.Workers = 3
	ck.saves = -1 // never fail again
	pub, err := ret.Run(context.Background())
	if err != nil {
		t.Fatalf("second attempt, on 3 workers: %v", err)
	}
	if _, def := reg.List(); def != "retrained" || pub.Info.Name != "retrained" {
		t.Fatalf("registry default %q, publication %+v: the resumed model was not published", def, pub)
	}
	if ck.payload != nil {
		t.Error("checkpoint survived a successful publish")
	}
}
