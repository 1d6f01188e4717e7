package trainer

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"qfe/internal/catalog"
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
	ck := &memCheckpointer{saves: 3}
	ret, err := NewRetrainer(RetrainConfig{
		Train: env.train,
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
	if err := json.Unmarshal(ck.payload, &saved); err != nil || len(saved.Train) == 0 {
		t.Fatalf("after the first attempt: checkpoint with %d bytes of fit progress (decode error %v), want a mid-fit one",
			len(saved.Train), err)
	}

	cfg.Workers = 3
	ck.saves = -1 // never fail again
	if _, err := ret.Run(context.Background()); err != nil {
		t.Fatalf("second attempt, on 3 workers: %v", err)
	}
	if _, def := reg.List(); def != "retrained" {
		t.Fatalf("registry default %q: the resumed model was not published", def)
	}
	if ck.payload != nil {
		t.Error("checkpoint survived a successful publish")
	}
}

// TestRetrainLabelsFromJournaledActuals: a retrain fits the boot's labels,
// each overwritten by the actual ActualLookup — the feedback journal's index
// in the daemon — knows for its query. The lookup's answers here are
// cardinalities the 3000-row table cannot have; they reach the training set
// untouched, every other label is the boot's, no row is counted, and Run
// reports the hits, once. A checkpoint with fit progress resumes on its own
// labels whatever the lookup has learned since, so a resumed fit never mixes
// two label sets; one in the format older builds wrote (with a "phase")
// resumes too, and an older label-phase checkpoint — no fit progress, -1 for
// every query it had not counted — is ignored.
func TestRetrainLabelsFromJournaledActuals(t *testing.T) {
	env := buildChaosEnv(t)
	env.db.DropDictionaries() // what labeling the fixture built
	reg := serve.NewRegistry()
	lc, err := serve.NewLifecycle(serve.LifecycleConfig{
		Registry: reg,
		DB:       env.db,
		// Half the labels below are fiction; the gate is not under test.
		Canary: serve.CanaryConfig{Workload: env.test, MaxMedian: 1e12, MaxP95: 1e12},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := len(env.train)
	index := make(map[*sqlparse.Query]int, n)
	for i, l := range env.train {
		index[l.Query] = i
	}
	var asked []int
	journaled := int64(1_000_000)
	ck := &memCheckpointer{saves: 1}
	ret, err := NewRetrainer(RetrainConfig{
		Train:           env.train,
		NewEstimator:    newLocalFactory(env.db),
		Lifecycle:       lc,
		Checkpoint:      ck,
		CheckpointEvery: 5,
		ActualLookup: func(q *sqlparse.Query) (int64, bool) { // knows the even queries
			asked = append(asked, index[q])
			return journaled + int64(index[q]), index[q]%2 == 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// saved decodes the checkpoint a failed save left and checks its labels:
	// the even ones the lookup's answers when base was journaled, the odd
	// ones the boot's.
	saved := func(what string, base int64) jobCheckpoint {
		t.Helper()
		var ck1 jobCheckpoint
		if err := json.Unmarshal(ck.payload, &ck1); err != nil || len(ck1.Train) == 0 || len(ck1.Labels) != n {
			t.Fatalf("%s: checkpoint with %d labels and %d bytes of fit progress (decode error %v), want a mid-fit one with %d labels",
				what, len(ck1.Labels), len(ck1.Train), err, n)
		}
		for i, got := range ck1.Labels {
			want := env.train[i].Card
			if i%2 == 0 {
				want = base + int64(i)
			}
			if got != want {
				t.Fatalf("%s: label %d = %d, want %d", what, i, got, want)
			}
		}
		return ck1
	}

	// The second mid-fit save fails, which leaves the first — and with it
	// the label vector the fit is running on — in the checkpointer.
	hits, err := ret.Run(context.Background())
	if !errors.Is(err, errDiskFull) || hits != n/2 || len(asked) != n {
		t.Fatalf("first attempt: %d journal labels from %d lookups, error %v; want %d from %d and the failed save", hits, len(asked), err, n/2, n)
	}
	first := saved("first attempt", 1_000_000)
	for _, name := range env.db.TableNames() {
		if built, _ := env.db.Table(name).DictionaryBuilds(); built != 0 {
			t.Errorf("table %s holds %d dictionaries after a retrain: it counted rows", name, built)
		}
	}

	// The journal learns newer actuals. The resumed attempt fits on the
	// checkpoint's labels all the same: no lookup, no hit counted twice, and
	// the checkpoints its own fit writes carry the first attempt's labels.
	journaled, asked, ck.saves = 7_000_000, nil, 1
	if hits, err = ret.Run(context.Background()); !errors.Is(err, errDiskFull) || hits != 0 || len(asked) != 0 {
		t.Fatalf("resumed attempt: %d journal labels, %d lookups, error %v; want 0, 0 and the failed save", hits, len(asked), err)
	}
	saved("resumed attempt", 1_000_000)

	// The first checkpoint as older builds wrote it resumes and publishes.
	older := func(fields map[string]any) []byte {
		t.Helper()
		payload, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	ck.payload, ck.saves = older(map[string]any{"phase": "train", "labels": first.Labels, "train": first.Train}), -1
	if hits, err = ret.Run(context.Background()); err != nil || hits != 0 || len(asked) != 0 {
		t.Fatalf("attempt over an older train-phase checkpoint: %d journal labels, %d lookups, error %v; want 0, 0, nil", hits, len(asked), err)
	}
	if _, def := reg.List(); def != "retrained" {
		t.Fatalf("registry default %q: the retrained model was not published", def)
	}
	if ck.payload != nil {
		t.Error("checkpoint survived a successful publish")
	}

	// An older label-phase checkpoint, its first 40 queries counted.
	partial := make([]int64, n)
	for i := range partial {
		partial[i] = -1
		if i < 40 {
			partial[i] = 5_000_000 + int64(i)
		}
	}
	ck.payload, ck.saves = older(map[string]any{"phase": "label", "labels": partial}), 1
	if hits, err = ret.Run(context.Background()); !errors.Is(err, errDiskFull) || hits != n/2 || len(asked) != n {
		t.Fatalf("attempt over an older label-phase checkpoint: %d journal labels from %d lookups, error %v; want %d from %d and the failed save",
			hits, len(asked), err, n/2, n)
	}
	saved("attempt over an older label-phase checkpoint", 7_000_000)
}

// TestRetrainRefitsOverUnresumableProgress: a train-phase checkpoint whose fit
// progress the estimator cannot continue — written under another -qft or
// another model config on the same -store, no longer decodable, or holding a
// model that fails validation or reads another input width — used to fail every attempt the same way, because it is cleared only by a
// publish, until the Controller quarantined the retrain. The attempt now
// drops the progress, refits on the checkpoint's labels (nothing is labeled
// again) and publishes.
func TestRetrainRefitsOverUnresumableProgress(t *testing.T) {
	env := buildChaosEnv(t)
	lookups := 0
	retrainer := func(ck *memCheckpointer, qft string, trees int) (*Retrainer, *serve.Registry) {
		t.Helper()
		reg := serve.NewRegistry()
		lc, err := serve.NewLifecycle(serve.LifecycleConfig{
			Registry: reg,
			DB:       env.db,
			Canary:   serve.CanaryConfig{Workload: env.test, MaxMedian: 100, MaxP95: 1e5},
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := gb.DefaultConfig()
		cfg.NumTrees, cfg.MaxDepth, cfg.Seed = trees, 5, 1
		ret, err := NewRetrainer(RetrainConfig{
			Train: env.train,
			NewEstimator: func() (*estimator.Local, error) {
				return estimator.NewLocal(env.db, estimator.LocalConfig{
					QFT:          qft,
					Opts:         core.Options{MaxEntriesPerAttr: 24, AttrSel: true},
					NewRegressor: estimator.NewGBFactory(cfg),
				})
			},
			Lifecycle:       lc,
			Checkpoint:      ck,
			CheckpointEvery: 5,
			ActualLookup:    func(*sqlparse.Query) (int64, bool) { lookups++; return 0, false },
		})
		if err != nil {
			t.Fatal(err)
		}
		return ret, reg
	}

	// A conjunctive fit whose second mid-fit save fails leaves its first.
	ck := &memCheckpointer{saves: 1}
	ret, _ := retrainer(ck, "conjunctive", 40)
	if _, err := ret.Run(context.Background()); !errors.Is(err, errDiskFull) {
		t.Fatalf("first attempt: error %v, want the failed checkpoint save", err)
	}
	var saved jobCheckpoint
	if err := json.Unmarshal(ck.payload, &saved); err != nil || len(saved.Train) == 0 {
		t.Fatalf("checkpoint with %d bytes of fit progress (decode error %v), want a mid-fit one", len(saved.Train), err)
	}
	finished := func(model string) []byte {
		t.Helper()
		progress, err := json.Marshal(map[string]any{
			"qft": "conjunctive", "modelType": "GB",
			"done": map[string]json.RawMessage{catalog.SubSchemaKey([]string{"forest"}): json.RawMessage(model)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return progress
	}

	for _, tc := range []struct {
		name, qft string
		trees     int
		train     []byte
	}{
		{"written under another QFT", "range", 40, saved.Train},
		{"written under another GB config", "conjunctive", 30, saved.Train},
		{"undecodable", "conjunctive", 40, []byte("{not json")},
		{"holding a model that fails validation", "conjunctive", 40,
			finished(`{"cfg":{},"base":1,"dim":3,"roots":[0],"feat":[9],"thr":[0.5],"left":[1]}`)},
		{"holding a model of another input width", "conjunctive", 40,
			finished(`{"cfg":{},"base":1,"dim":3,"roots":[0],"feat":[-1],"thr":[0.5],"left":[0]}`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload, err := json.Marshal(jobCheckpoint{Labels: saved.Labels, Train: tc.train})
			if err != nil {
				t.Fatal(err)
			}
			ck := &memCheckpointer{payload: payload, saves: -1}
			ret, reg := retrainer(ck, tc.qft, tc.trees)
			lookups = 0
			if _, err := ret.Run(context.Background()); err != nil {
				t.Fatalf("attempt over the checkpoint: %v", err)
			}
			if _, def := reg.List(); def != "retrained" {
				t.Fatalf("registry default %q: the refit model was not published", def)
			}
			if lookups != 0 {
				t.Errorf("%d label lookups: the refit labeled again instead of using the checkpoint's labels", lookups)
			}
			if ck.payload != nil {
				t.Error("checkpoint survived a successful publish")
			}
		})
	}
}
