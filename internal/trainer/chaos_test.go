package trainer

// The self-healing acceptance test: injected drift trips the monitor, the
// controller starts a retrain whose first two attempts die mid-training —
// a process crash and a torn write, both on the checkpoint path — and the
// third attempt resumes from the last
// durable checkpoint, clears the canary gate, and publishes a new store
// generation. No model reaches traffic except through the lifecycle, no
// valid generation is quarantined, and no goroutine outlives the test.

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/drift"
	"qfe/internal/estimator"
	"qfe/internal/ml/gb"
	"qfe/internal/resilience/faultinject"
	"qfe/internal/serve"
	"qfe/internal/store"
	"qfe/internal/table"
	"qfe/internal/testutil"
	"qfe/internal/workload"
)

// chaosEnv is the shared fixture: a small forest database plus labeled
// train and canary workloads.
type chaosEnv struct {
	db    *table.DB
	train workload.Set
	test  workload.Set
}

func buildChaosEnv(t *testing.T) *chaosEnv {
	t.Helper()
	tbl, err := dataset.Forest(dataset.ForestConfig{Rows: 3000, QuantAttrs: 5, BinaryAttrs: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	db := table.NewDB()
	db.MustAdd(tbl)
	train, err := workload.Conjunctive(tbl, workload.ConjConfig{Count: 150, MaxAttrs: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	test, err := workload.Conjunctive(tbl, workload.ConjConfig{Count: 60, MaxAttrs: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return &chaosEnv{db: db, train: train, test: test}
}

func newLocalFactory(db *table.DB) func() (*estimator.Local, error) {
	cfg := gb.DefaultConfig()
	cfg.NumTrees = 40
	cfg.MaxDepth = 5
	cfg.Seed = 1
	return func() (*estimator.Local, error) {
		return estimator.NewLocal(db, estimator.LocalConfig{
			QFT:          "conjunctive",
			Opts:         core.Options{MaxEntriesPerAttr: 24, AttrSel: true},
			NewRegressor: estimator.NewGBFactory(cfg),
		})
	}
}

// loadRecord is what the chaos checkpointer saw at the start of one attempt.
type loadRecord struct {
	ok        bool
	fit       bool // the checkpoint carries fit progress
	tempSwept int
}

// chaosCheckpointer simulates process restarts: each Load (= the start of
// one retraining attempt) reopens the checkpoint store — sweeping torn
// temp files exactly like a reboot — under that attempt's scheduled
// filesystem fault. Attempts beyond the schedule run on a clean filesystem.
type chaosCheckpointer struct {
	t        *testing.T
	dir      string
	schedule []faultinject.FSConfig

	mu      sync.Mutex
	attempt int
	st      *store.Store
	loads   []loadRecord
}

func (c *chaosCheckpointer) Load() ([]byte, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cfg := faultinject.FSConfig{Kind: faultinject.FSNone}
	if c.attempt < len(c.schedule) {
		cfg = c.schedule[c.attempt]
	}
	c.attempt++
	st, err := store.Open(c.dir, store.Options{FS: faultinject.NewFS(nil, cfg)})
	if err != nil {
		c.loads = append(c.loads, loadRecord{})
		return nil, false, err
	}
	c.st = st
	payload, ok, err := st.ReadCheckpoint("retrain")
	rec := loadRecord{ok: ok, tempSwept: st.Recovery().TempSwept}
	if ok {
		var ck jobCheckpoint
		if json.Unmarshal(payload, &ck) == nil {
			rec.fit = len(ck.Train) > 0
		}
	}
	c.loads = append(c.loads, rec)
	return payload, ok, err
}

func (c *chaosCheckpointer) Save(payload []byte) error {
	c.mu.Lock()
	st := c.st
	c.mu.Unlock()
	return st.PutCheckpoint("retrain", payload)
}

func (c *chaosCheckpointer) Clear() error {
	c.mu.Lock()
	st := c.st
	c.mu.Unlock()
	return st.ClearCheckpoint("retrain")
}

// openOps measures the mutating-operation cost of store.Open on a fresh
// directory, anchoring the crash ordinals below.
func openOps(t *testing.T) int {
	t.Helper()
	ffs := faultinject.NewFS(nil, faultinject.FSConfig{Kind: faultinject.FSNone})
	if _, err := store.Open(t.TempDir(), store.Options{FS: ffs}); err != nil {
		t.Fatal(err)
	}
	return ffs.MutatingOps()
}

func TestSelfHealingRetrainSurvivesChaos(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	env := buildChaosEnv(t)

	// The serving side: registry + crash-safe model store + canary gate.
	reg := serve.NewRegistry()
	modelStore, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lc, err := serve.NewLifecycle(serve.LifecycleConfig{
		Registry: reg,
		Store:    modelStore,
		DB:       env.db,
		Canary:   serve.CanaryConfig{Workload: env.test, MaxMedian: 100, MaxP95: 1e5},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Each checkpoint save is WriteFile + Rename + SyncDir (3 mutating
	// ops) after the Open overhead. Attempt 1 dies on its 3rd save's
	// WriteFile (a plain crash, two checkpoints durable); attempt 2
	// resumes and dies on its 2nd save's WriteFile with a torn partial
	// write (one more checkpoint durable, plus a torn temp for the next
	// reboot to sweep); attempt 3 runs clean.
	open := openOps(t)
	ck := &chaosCheckpointer{
		t:   t,
		dir: t.TempDir(),
		schedule: []faultinject.FSConfig{
			{Seed: 1, Kind: faultinject.FSCrash, Op: open + 7},
			{Seed: 2, Kind: faultinject.FSTornWrite, Op: open + 4},
		},
	}

	ret, err := NewRetrainer(RetrainConfig{
		Train:           env.train,
		NewEstimator:    newLocalFactory(env.db),
		Lifecycle:       lc,
		Name:            "retrained",
		Checkpoint:      ck,
		CheckpointEvery: 5, // trees between checkpoints: several saves per attempt
	})
	if err != nil {
		t.Fatal(err)
	}

	var ctrl *Controller
	mon, err := drift.NewMonitor(drift.MonitorConfig{
		QError:  drift.QErrorConfig{Delta: 0.05, Lambda: 2, MinSamples: 5, MaxLogQ: 20},
		OnEvent: func(ev drift.Event) { ctrl.HandleEvent(ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err = NewController(ControllerConfig{
		Retrain:    ret.Run,
		Monitor:    mon,
		Backoff:    time.Millisecond,
		MaxBackoff: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	// Inject drift: healthy feedback to seed the baseline, then a burst of
	// three-orders-of-magnitude q-errors until the alarm fires.
	for i := 0; i < 6; i++ {
		mon.ObserveFeedback(100, 100, true)
	}
	for i := 0; i < 20 && len(jobs(ctrl)) == 0; i++ {
		mon.ObserveFeedback(1, 1e6, true)
	}
	if len(jobs(ctrl)) == 0 {
		t.Fatal("injected drift never started a retraining job")
	}

	st := waitTerminal(t, ctrl)
	if st.State != JobDone {
		t.Fatalf("job state = %v (attempts %d, last error %q), want done", st.State, st.Attempts, st.LastError)
	}
	if st.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (crash, torn write, clean run)", st.Attempts)
	}

	// The crashed attempts must have resumed, not restarted: attempts 2
	// and 3 both loaded a durable checkpoint with fit progress, and attempt 3's
	// reboot swept the torn temp file attempt 2 left behind.
	if len(ck.loads) != 3 {
		t.Fatalf("checkpointer saw %d attempts, want 3", len(ck.loads))
	}
	if ck.loads[0].ok {
		t.Errorf("attempt 1 load = %+v, want no checkpoint", ck.loads[0])
	}
	for i, rec := range ck.loads[1:] {
		if !rec.ok || !rec.fit {
			t.Errorf("attempt %d load = %+v, want a durable checkpoint with fit progress", i+2, rec)
		}
	}
	if ck.loads[2].tempSwept != 1 {
		t.Errorf("attempt 3 swept %d torn temps, want 1 (the torn checkpoint write)", ck.loads[2].tempSwept)
	}

	// The retrained model reached traffic through the canary gate only:
	// it is the registry default, backed by a fresh valid generation, with
	// nothing quarantined and nothing rejected.
	models, def := reg.List()
	if def != "retrained" {
		t.Errorf("registry default = %q, want retrained", def)
	}
	found := false
	for _, m := range models {
		if m.Name == "retrained" {
			found = true
			if m.Source != "retrain" {
				t.Errorf("model source = %q, want retrain", m.Source)
			}
		}
	}
	if !found {
		t.Error("retrained model is not registered")
	}
	c := ctrl.Counters()
	if c["retrain_started"].(uint64) != 1 || c["retrain_succeeded"].(uint64) != 1 {
		t.Errorf("controller counters = %v, want exactly one started and one succeeded run", c)
	}
	if c["retrain_canary_rejected"].(uint64) != 0 {
		t.Errorf("canary rejections = %v, want 0", c["retrain_canary_rejected"])
	}
	if c["retrain_failed"].(uint64) != 2 {
		t.Errorf("transient failures = %v, want 2 (the two injected crashes)", c["retrain_failed"])
	}

	// A clean reboot of the model store sees exactly one valid generation.
	reopened, err := store.Open(modelStore.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := reopened.Recovery()
	if rep.Valid != 1 || rep.Corrupt != 0 || rep.Quarantined != 0 {
		t.Errorf("model store after chaos: %+v, want exactly 1 valid generation", rep)
	}

	// Success resets the drift monitor to full sensitivity.
	if widen := mon.Status()["qerror"].(map[string]any)["widen"].(float64); widen != 1 {
		t.Errorf("post-success q-error widen = %v, want 1 (Reset)", widen)
	}

	// And the checkpoint is gone: nothing stale to resume into.
	final, err := store.Open(ck.dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := final.ReadCheckpoint("retrain"); ok {
		t.Error("checkpoint survived a successful publish")
	}
}
