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

// TestRetrainLabelsFromJournaledActuals: ActualLookup, which the daemon
// points at the feedback journal's index, labels the queries it knows
// without executing them — its answers here are cardinalities the executor
// cannot produce, and they reach the training set untouched — while the rest
// are counted exactly; Run reports the hits, once; and a resumed label-phase
// checkpoint keeps its labels and asks the lookup only about the rest.
func TestRetrainLabelsFromJournaledActuals(t *testing.T) {
	env := buildChaosEnv(t)
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
	qs := make([]*sqlparse.Query, n)
	for i := range env.train {
		qs[i] = env.train[i].Query
		index[qs[i]] = i
	}
	var asked []int
	ck := &memCheckpointer{saves: 1}
	ret, err := NewRetrainer(RetrainConfig{
		DB:              env.db,
		Queries:         qs,
		NewEstimator:    newLocalFactory(env.db),
		Lifecycle:       lc,
		Checkpoint:      ck,
		CheckpointEvery: 5,
		ActualLookup: func(q *sqlparse.Query) (int64, bool) { // knows the even queries
			asked = append(asked, index[q])
			return 1_000_000 + int64(index[q]), index[q]%2 == 0 // the table has 3000 rows
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// checkLabels: the first done slots hold a resumed checkpoint's labels,
	// the even ones after them the lookup's, the odd ones the executor's.
	checkLabels := func(labels []int64, done int) {
		t.Helper()
		for i, got := range labels {
			want := env.train[i].Card
			if i < done {
				want = 5_000_000 + int64(i)
			} else if i%2 == 0 {
				want = 1_000_000 + int64(i)
			}
			if got != want {
				t.Fatalf("label %d = %d, want %d", i, got, want)
			}
		}
	}

	// The second mid-fit save fails, which leaves the first — and with it
	// the label vector the fit is running on — in the checkpointer.
	hits, err := ret.Run(context.Background())
	if !errors.Is(err, errDiskFull) || hits != n/2 || len(asked) != n {
		t.Fatalf("first attempt: %d journal labels from %d lookups, error %v; want %d from %d and the failed save", hits, len(asked), err, n/2, n)
	}
	var saved jobCheckpoint
	if err := json.Unmarshal(ck.payload, &saved); err != nil || saved.Phase != phaseTrain || len(saved.Labels) != n {
		t.Fatalf("checkpoint phase %q with %d labels (decode error %v), want a train-phase one with %d", saved.Phase, len(saved.Labels), err, n)
	}
	checkLabels(saved.Labels, 0)
	// The executor counted the odd half on the columns' dictionaries; the
	// daemon does not hold them until the next retrain.
	for _, name := range env.db.TableNames() {
		if built, _ := env.db.Table(name).DictionaryBuilds(); built != 0 {
			t.Errorf("table %s holds %d dictionaries after labeling", name, built)
		}
	}

	// The resumed attempt finds labeling finished: no lookup, no hit counted
	// twice, and the model fitted on those labels is published.
	asked, ck.saves = nil, -1
	if hits, err = ret.Run(context.Background()); err != nil || hits != 0 || len(asked) != 0 {
		t.Fatalf("resumed attempt: %d journal labels, %d lookups, error %v; want 0, 0, nil", hits, len(asked), err)
	}
	if _, def := reg.List(); def != "retrained" {
		t.Fatalf("registry default %q: the retrained model was not published", def)
	}

	// A checkpoint written mid-labeling, its first 40 queries labeled.
	const done = 40
	partial := &jobCheckpoint{Phase: phaseLabel, Labels: make([]int64, n)}
	for i := range partial.Labels {
		partial.Labels[i] = -1
		if i < done {
			partial.Labels[i] = 5_000_000 + int64(i)
		}
	}
	labels, hits, err := ret.label(context.Background(), partial)
	if err != nil || hits != (n-done)/2 || len(asked) != n-done || asked[0] != done {
		t.Fatalf("resumed labeling: %d journal labels from lookups %v, error %v; want %d from queries %d..%d", hits, asked, err, (n-done)/2, done, n-1)
	}
	checkLabels(labels, done)
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
	qs := make([]*sqlparse.Query, len(env.train))
	for i := range env.train {
		qs[i] = env.train[i].Query
	}
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
			DB:      env.db,
			Queries: qs,
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
	if err := json.Unmarshal(ck.payload, &saved); err != nil || saved.Phase != phaseTrain || len(saved.Train) == 0 {
		t.Fatalf("checkpoint phase %q with %d bytes of fit progress (decode error %v), want a mid-fit one", saved.Phase, len(saved.Train), err)
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
			payload, err := json.Marshal(jobCheckpoint{Phase: phaseTrain, Labels: saved.Labels, Train: tc.train})
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
