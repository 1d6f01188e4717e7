package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qfe/internal/estimator"
	"qfe/internal/resilience/faultinject"
	"qfe/internal/sqlparse"
	"qfe/internal/store"
	"qfe/internal/table"
	"qfe/internal/testutil"
	"qfe/internal/workload"
)

// ---- fixtures ----

// canarySet builds a synthetic canary workload whose queries all have true
// cardinality card, so constEst canaries have exact, predictable q-errors.
func canarySet(tb testing.TB, n int, card int64) workload.Set {
	tb.Helper()
	q, err := sqlparse.Parse(stubSQL)
	if err != nil {
		tb.Fatal(err)
	}
	set := make(workload.Set, n)
	for i := range set {
		set[i] = workload.Labeled{Query: q, Card: card}
	}
	return set
}

// lifecycleEnv builds a labeled canary split plus good and bad trained
// models: the bad one is trained on labels inflated a millionfold, so it
// loads cleanly and estimates terribly — the failure mode the canary gate
// exists to catch.
func lifecycleEnv(tb testing.TB) (*table.DB, workload.Set, *estimator.Local, *estimator.Local) {
	tb.Helper()
	db, set := testEnv(tb)
	good := trainLocal(tb, db, set[:400], 16)
	poisoned := make(workload.Set, 400)
	for i, l := range set[:400] {
		poisoned[i] = workload.Labeled{Query: l.Query, Card: l.Card*1_000_000 + 1_000_000_000}
	}
	bad := trainLocal(tb, db, poisoned, 16)
	return db, set[500:700], good, bad
}

func snapshotBytes(tb testing.TB, loc *estimator.Local) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := loc.SaveJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func newLifecycle(tb testing.TB, dir string, canary CanaryConfig, db *table.DB) (*Lifecycle, *Registry) {
	tb.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	reg := NewRegistry()
	lc, err := NewLifecycle(LifecycleConfig{Registry: reg, Store: st, DB: db, Canary: canary})
	if err != nil {
		tb.Fatal(err)
	}
	return lc, reg
}

// looseCanary passes any roughly-sane trained model but fails the poisoned
// one by orders of magnitude.
func looseCanary(ws workload.Set) CanaryConfig {
	return CanaryConfig{Workload: ws, MaxMedian: 1_000, MaxP95: 100_000, Slack: 1e9}
}

// ---- canary gate ----

func TestRunCanaryVerdicts(t *testing.T) {
	ws := canarySet(t, 20, 100)
	cfg := CanaryConfig{Workload: ws, MaxMedian: 10, MaxP95: 100}

	if res := RunCanary(context.Background(), constEst(100), cfg, nil); !res.Pass || res.Median != 1 {
		t.Errorf("exact model: %+v, want pass with median 1", res)
	}
	if res := RunCanary(context.Background(), constEst(100_000), cfg, nil); res.Pass || res.Median != 1000 {
		t.Errorf("1000x-off model: %+v, want fail with median 1000", res)
	}
	if res := RunCanary(context.Background(), errEst{}, cfg, nil); res.Pass || res.Failed != len(ws) || !math.IsInf(res.Median, 1) {
		t.Errorf("erroring model: %+v, want all-failed with Inf median", res)
	}
	if res := RunCanary(context.Background(), constEst(1), CanaryConfig{}, nil); !res.Pass {
		t.Errorf("empty workload: %+v, want pass", res)
	}

	// Incumbent regression: q-error 5 clears the absolute ceiling of 10 but
	// regresses past an incumbent at 2 with slack 2.
	incumbent := &CanaryResult{Median: 2, P95: 2}
	if res := RunCanary(context.Background(), constEst(500), cfg, incumbent); res.Pass {
		t.Errorf("regressing model: %+v, want fail vs incumbent 2 with slack 2", res)
	}
	if res := RunCanary(context.Background(), constEst(250), cfg, &CanaryResult{Median: 2, P95: 3}); !res.Pass {
		t.Errorf("within-slack model: %+v, want pass (q-error 2.5 <= incumbent 2 x slack 2)", res)
	}
}

func TestRunCanaryTimeout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := RunCanary(ctx, constEst(1), CanaryConfig{Workload: canarySet(t, 5, 1)}, nil)
	if res.Pass || !math.IsInf(res.Median, 1) {
		t.Fatalf("cancelled canary: %+v, want fail with Inf median", res)
	}
}

// ---- lifecycle publish / recover / rollback ----

func TestLifecyclePublishGate(t *testing.T) {
	db, canaryWS, good, bad := lifecycleEnv(t)
	dir := t.TempDir()
	lc, reg := newLifecycle(t, dir, looseCanary(canaryWS), db)

	// The bad model is rejected: nothing registered, nothing persisted.
	_, err := lc.Publish(context.Background(), PublishSpec{
		Name: "live", Est: bad, Kind: "local", Source: "test",
		Snapshot: snapshotBytes(t, bad), MakeDefault: true,
	})
	if !errors.Is(err, ErrCanaryRejected) {
		t.Fatalf("bad model publish: err = %v, want ErrCanaryRejected", err)
	}
	if _, _, err := reg.Resolve("live"); err == nil {
		t.Fatal("rejected model reached the registry")
	}
	if _, ok := lc.Store().Latest(); ok {
		t.Fatal("rejected model reached the store")
	}

	// The good model is admitted, persisted, and becomes the default.
	pub, err := lc.Publish(context.Background(), PublishSpec{
		Name: "live", Est: good, Kind: "local", Source: "test",
		Snapshot: snapshotBytes(t, good), MakeDefault: true,
	})
	if err != nil {
		t.Fatalf("good model publish: %v", err)
	}
	if !pub.Canary.Pass || pub.Info.StoreGeneration == 0 {
		t.Fatalf("publication = %+v, want passing canary and a store generation", pub)
	}
	if g, ok := lc.Store().Latest(); !ok || g.Number != pub.Info.StoreGeneration {
		t.Fatalf("store latest = %+v/%v, want generation %d", g, ok, pub.Info.StoreGeneration)
	}
	if _, info, err := reg.Resolve(""); err != nil || info.Name != "live" || info.Canary == nil {
		t.Fatalf("default = %+v (err %v), want live with canary info", info, err)
	}
}

func TestLifecycleRecoverAcrossRestart(t *testing.T) {
	db, canaryWS, good, _ := lifecycleEnv(t)
	dir := t.TempDir()
	lc, _ := newLifecycle(t, dir, looseCanary(canaryWS), db)
	pub, err := lc.Publish(context.Background(), PublishSpec{
		Name: "live", Est: good, Kind: "local",
		Snapshot: snapshotBytes(t, good), MakeDefault: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh store handle, fresh registry, recover from disk.
	lc2, reg2 := newLifecycle(t, dir, looseCanary(canaryWS), db)
	rec, ok, err := lc2.Recover(context.Background(), "live", true)
	if err != nil || !ok {
		t.Fatalf("recover: ok=%v err=%v", ok, err)
	}
	if rec.Info.StoreGeneration != pub.Info.StoreGeneration {
		t.Fatalf("recovered generation %d, want %d", rec.Info.StoreGeneration, pub.Info.StoreGeneration)
	}
	est, _, err := reg2.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	q := canaryWS[0].Query
	want, err := good.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.Estimate(q)
	if err != nil || got != want {
		t.Fatalf("recovered estimate = %v (err %v), want %v", got, err, want)
	}

	// Empty store: recover reports no candidate without erroring.
	lc3, _ := newLifecycle(t, t.TempDir(), looseCanary(canaryWS), db)
	if _, ok, err := lc3.Recover(context.Background(), "live", true); ok || err != nil {
		t.Fatalf("empty-store recover: ok=%v err=%v, want false/nil", ok, err)
	}
}

func TestLifecycleRollback(t *testing.T) {
	db, canaryWS, good, _ := lifecycleEnv(t)
	dir := t.TempDir()
	lc, reg := newLifecycle(t, dir, looseCanary(canaryWS), db)

	publish := func() Publication {
		t.Helper()
		pub, err := lc.Publish(context.Background(), PublishSpec{
			Name: "live", Est: good, Kind: "local",
			Snapshot: snapshotBytes(t, good), MakeDefault: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pub
	}
	p1, p2 := publish(), publish()
	if p2.Info.StoreGeneration <= p1.Info.StoreGeneration {
		t.Fatalf("generations %d then %d, want ascending", p1.Info.StoreGeneration, p2.Info.StoreGeneration)
	}

	rb, err := lc.Rollback(context.Background(), "test")
	if err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if rb.Info.StoreGeneration != p1.Info.StoreGeneration {
		t.Fatalf("rolled back to generation %d, want %d", rb.Info.StoreGeneration, p1.Info.StoreGeneration)
	}
	if _, info, err := reg.Resolve(""); err != nil || info.StoreGeneration != p1.Info.StoreGeneration {
		t.Fatalf("default after rollback = %+v (err %v)", info, err)
	}
	// The quarantined generation is gone from the store's valid set.
	if g, ok := lc.Store().Latest(); !ok || g.Number != p1.Info.StoreGeneration {
		t.Fatalf("store latest after rollback = %+v/%v", g, ok)
	}

	// With only one generation left, a further rollback has no target and
	// must not dislodge the survivor... but it quarantines the live
	// generation first, so the error names the real condition.
	if _, err := lc.Rollback(context.Background(), "again"); !errors.Is(err, ErrNoRollbackTarget) {
		t.Fatalf("rollback with no target: %v, want ErrNoRollbackTarget", err)
	}
}

// TestCanceledContextDoesNotQuarantine: a canceled context aborts the
// canary for reasons that say nothing about the model, so Recover and
// Rollback must surface the cancellation instead of quarantining every
// valid generation on disk (a client disconnect or shutdown race would
// otherwise irreversibly burn all rollback state).
func TestCanceledContextDoesNotQuarantine(t *testing.T) {
	db, canaryWS, good, _ := lifecycleEnv(t)
	dir := t.TempDir()
	lc, _ := newLifecycle(t, dir, looseCanary(canaryWS), db)
	for i := 0; i < 2; i++ {
		if _, err := lc.Publish(context.Background(), PublishSpec{
			Name: "live", Est: good, Kind: "local",
			Snapshot: snapshotBytes(t, good), MakeDefault: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	// Rollback with a canceled context: live generation stays in place.
	if _, err := lc.Rollback(canceled, "canceled"); err == nil || errors.Is(err, ErrNoRollbackTarget) {
		t.Fatalf("canceled rollback: err = %v, want a cancellation error", err)
	}
	if got := len(lc.Store().Generations()); got != 2 {
		t.Fatalf("%d generations survive a canceled rollback, want 2", got)
	}

	// Probe with a canceled context: no verdict recorded, no rollback.
	if out, err := lc.Probe(canceled); err == nil || out.RolledBack {
		t.Fatalf("canceled probe = %+v, err %v, want error without rollback", out, err)
	}
	if got := len(lc.Store().Generations()); got != 2 {
		t.Fatalf("%d generations survive a canceled probe, want 2", got)
	}

	// Recover on a fresh handle with a canceled context: the walk aborts
	// before judging anything.
	lc2, _ := newLifecycle(t, dir, looseCanary(canaryWS), db)
	if _, ok, err := lc2.Recover(canceled, "live", true); err == nil || ok {
		t.Fatalf("canceled recover: ok=%v err=%v, want error", ok, err)
	}
	if got := len(lc2.Store().Generations()); got != 2 {
		t.Fatalf("%d generations survive a canceled recover, want 2", got)
	}
}

// quarantineFailFS delegates to the real filesystem but fails renames into
// quarantine — the step the promote walk depends on for progress.
type quarantineFailFS struct {
	store.FS
}

func (f quarantineFailFS) Rename(oldPath, newPath string) error {
	if strings.HasPrefix(filepath.Base(newPath), "quarantined-") {
		return errors.New("injected: quarantine rename failed")
	}
	return f.FS.Rename(oldPath, newPath)
}

// TestQuarantineFailureAbortsWalk: when the store cannot quarantine a
// canary-failing generation, Recover must return the error instead of
// re-selecting the same generation forever under the lifecycle mutex
// (which would wedge publishes, probes, and the rollback endpoint).
func TestQuarantineFailureAbortsWalk(t *testing.T) {
	db, canaryWS, _, bad := lifecycleEnv(t)
	dir := t.TempDir()

	// Admit the bad model through an empty canary (always passes) so the
	// store holds a generation the real canary will reject at recover time.
	lc, _ := newLifecycle(t, dir, CanaryConfig{}, db)
	if _, err := lc.Publish(context.Background(), PublishSpec{
		Name: "live", Est: bad, Kind: "local",
		Snapshot: snapshotBytes(t, bad), MakeDefault: true,
	}); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(dir, store.Options{FS: quarantineFailFS{store.OSFS()}})
	if err != nil {
		t.Fatal(err)
	}
	lc2, err := NewLifecycle(LifecycleConfig{Registry: NewRegistry(), Store: st, DB: db, Canary: looseCanary(canaryWS)})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		ok  bool
		err error
	}
	done := make(chan result, 1)
	go func() {
		_, ok, err := lc2.Recover(context.Background(), "live", true)
		done <- result{ok, err}
	}()
	select {
	case r := <-done:
		if r.ok || r.err == nil || errors.Is(r.err, ErrNoRollbackTarget) {
			t.Fatalf("recover with failing quarantine: ok=%v err=%v, want the quarantine error", r.ok, r.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("recover spun forever on an unquarantinable generation")
	}
	// The generation was not silently dropped: it is still on disk, so an
	// operator (or a later walk, once the I/O error clears) can deal with it.
	if got := len(st.Generations()); got != 1 {
		t.Fatalf("%d generations after aborted walk, want 1", got)
	}
}

// ---- supervision: Probe and the loop that runs it ----

// TestSupervisorAutoRollback is the live-degradation scenario: a model that
// passed its admission canary starts failing in production (injected via
// faultinject), a probe catches it, quarantines its generation, and promotes
// the previous good generation — all without an operator.
func TestSupervisorAutoRollback(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db, canaryWS, good, _ := lifecycleEnv(t)
	dir := t.TempDir()
	lc, reg := newLifecycle(t, dir, looseCanary(canaryWS), db)

	// Generation 1: a plain good model.
	p1, err := lc.Publish(context.Background(), PublishSpec{
		Name: "live", Est: good, Kind: "local",
		Snapshot: snapshotBytes(t, good), MakeDefault: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Generation 2: the same model behind a (currently clean) fault
	// injector. Its snapshot is the clean model, so rolling back to it later
	// would also work.
	inj := faultinject.New(good, faultinject.Config{Seed: 1})
	p2, err := lc.Publish(context.Background(), PublishSpec{
		Name: "live", Est: inj, Kind: "local",
		Snapshot: snapshotBytes(t, good), MakeDefault: true,
	})
	if err != nil {
		t.Fatalf("clean injector failed its admission canary: %v", err)
	}

	// Healthy probe: no rollback, canary status refreshed in the registry.
	out, err := lc.Probe(context.Background())
	if err != nil || !out.Probed || !out.Result.Pass || out.RolledBack {
		t.Fatalf("healthy probe: %+v err=%v", out, err)
	}

	// The live model degrades: every call now errors.
	inj.SetConfig(faultinject.Config{Seed: 2, ErrorRate: 1})
	out, err = lc.Probe(context.Background())
	if err != nil {
		t.Fatalf("degraded probe: %v", err)
	}
	if !out.Probed || out.Result.Pass || !out.RolledBack {
		t.Fatalf("degraded probe outcome: %+v, want fail + rollback", out)
	}
	if out.RolledBackTo.Info.StoreGeneration != p1.Info.StoreGeneration {
		t.Fatalf("rolled back to generation %d, want %d", out.RolledBackTo.Info.StoreGeneration, p1.Info.StoreGeneration)
	}
	if _, info, err := reg.Resolve(""); err != nil || info.StoreGeneration != p1.Info.StoreGeneration {
		t.Fatalf("default after auto-rollback = %+v (err %v)", info, err)
	}
	if g, ok := lc.Store().Latest(); !ok || g.Number == p2.Info.StoreGeneration {
		t.Fatalf("degraded generation %d still newest in store (latest %+v ok=%v)", p2.Info.StoreGeneration, g, ok)
	}

	// A post-rollback probe of the restored model passes again.
	if out, err := lc.Probe(context.Background()); err != nil || !out.Result.Pass || out.RolledBack {
		t.Fatalf("post-rollback probe: %+v err=%v", out, err)
	}
}

// TestSupervisorCloseIdempotent: the probe loop's stop waits for the goroutine
// (VerifyNoLeaks) and may be called again; with nothing live its scheduled
// probes are no-ops.
func TestSupervisorCloseIdempotent(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	lc, err := NewLifecycle(LifecycleConfig{Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	stop := lc.ProbeEvery(context.Background(), time.Millisecond)
	time.Sleep(5 * time.Millisecond) // let a few (no-op) scheduled probes fire
	stop()
	stop()
}

// TestProbeEveryRollsBackAndStopsMidCanary drives the loop itself: on its own
// clock it catches a model that degraded after publish, rolls back and logs
// the line an operator greps for; and stop returns promptly while a canary
// run is stuck inside a slow model, because it cancels the probe's context.
func TestProbeEveryRollsBackAndStopsMidCanary(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	var logged bytes.Buffer // read only after stop has joined the one goroutine that logs
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	db, canaryWS, good, _ := lifecycleEnv(t)
	lc, reg := newLifecycle(t, t.TempDir(), looseCanary(canaryWS), db)
	publish := func(est estimator.Estimator) uint64 {
		t.Helper()
		pub, err := lc.Publish(context.Background(), PublishSpec{
			Name: "live", Est: est, Kind: "local", Snapshot: snapshotBytes(t, good), MakeDefault: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pub.Info.StoreGeneration
	}
	liveGen := func() uint64 {
		_, info, _ := reg.Resolve("")
		return info.StoreGeneration
	}
	gen1 := publish(good)
	inj := faultinject.New(good, faultinject.Config{Seed: 1})
	publish(inj)
	inj.SetConfig(faultinject.Config{Seed: 2, ErrorRate: 1})

	stop := lc.ProbeEvery(context.Background(), time.Millisecond)
	for deadline := time.Now().Add(10 * time.Second); liveGen() != gen1 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	stop()
	if want := fmt.Sprintf("serve: supervisor rolled back to generation %d: ", gen1); !strings.Contains(logged.String(), want) {
		t.Fatalf("live generation %d, log %q: want a rollback to %d and %q", liveGen(), logged.String(), gen1, want)
	}

	// A third generation that, once published, hangs in every estimate until
	// its context ends: the probe that picks it up sits in its canary until
	// stop cancels it, and an interrupted probe is no verdict on the model.
	hung := &hangingEst{Estimator: good, entered: make(chan struct{}, 1)}
	gen3 := publish(hung)
	hung.hang.Store(true)
	stop = lc.ProbeEvery(context.Background(), time.Millisecond)
	select {
	case <-hung.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the probe loop never reached the hanging model")
	}
	stop()
	if !strings.Contains(logged.String(), "serve: supervisor probe: serve: probe interrupted") {
		t.Fatalf("log %q lacks the interrupted-probe line", logged.String())
	}
	if liveGen() != gen3 {
		t.Fatalf("an interrupted probe moved the default to generation %d", liveGen())
	}
}

// hangingEst is its embedded estimator until hang is set; from then on every
// estimate announces itself on entered and blocks until its context ends.
type hangingEst struct {
	estimator.Estimator
	hang    atomic.Bool
	entered chan struct{}
}

func (h *hangingEst) EstimateCtx(ctx context.Context, q *sqlparse.Query) (float64, error) {
	if !h.hang.Load() {
		return estimator.EstimateWithContext(ctx, h.Estimator, q)
	}
	select {
	case h.entered <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return 0, ctx.Err()
}

// TestLoadRefusesDeletedSnapshotKinds: earlier builds could write "global"
// and "hybrid" documents and this one reads neither. A well-formed one —
// a real local snapshot under the other name, or inside a hybrid's envelope —
// POSTed to /v1/models/load is the client's error on both load paths, the
// direct one and the canary-gated one, and registers and persists nothing.
func TestLoadRefusesDeletedSnapshotKinds(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db, canaryWS, good, _ := lifecycleEnv(t)
	root := t.TempDir()
	local := snapshotBytes(t, good)
	docs := map[string][]byte{
		"global": bytes.Replace(local, []byte(`"kind":"local"`), []byte(`"kind":"global"`), 1),
		"hybrid": []byte(`{"format":1,"kind":"hybrid","fallback":"independence","maxQuantileError":3,"quantile":0.9,"modeled":[],"local":` +
			string(bytes.TrimSpace(local)) + `}`),
	}
	if bytes.Equal(docs["global"], local) {
		t.Fatal("kind field not found in local snapshot — format changed?")
	}
	for kind, doc := range docs {
		if err := os.WriteFile(filepath.Join(root, kind+".json"), doc, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	lc, gated := newLifecycle(t, filepath.Join(root, "store"), looseCanary(canaryWS), db)
	for _, path := range []struct {
		name string
		cfg  Config
	}{
		{"direct", Config{Registry: NewRegistry(), DB: db, ModelRoot: root}},
		{"lifecycle", Config{Registry: gated, DB: db, ModelRoot: root, Lifecycle: lc}},
	} {
		srv, err := New(path.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for kind := range docs {
			code, resp := postJSON(t, srv.Handler(), "/v1/models/load", map[string]any{"name": "x", "path": kind + ".json", "default": true})
			want := `unknown snapshot kind "` + kind + `"`
			if msg, _ := resp["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, want) {
				t.Errorf("%s load of a %s document: status %d body %v, want 400 saying %s", path.name, kind, code, resp, want)
			}
		}
		if models, def := path.cfg.Registry.List(); len(models) != 0 || def != "" {
			t.Errorf("%s: registry holds %v (default %q) after refused loads", path.name, models, def)
		}
	}
	if g, ok := lc.Store().Latest(); ok {
		t.Errorf("store holds generation %+v after refused loads", g)
	}
}

// ---- end-to-end over a real listener ----

// TestCanaryGateEndToEnd is the acceptance scenario: over a real listener,
// a canary-failing snapshot POSTed to /v1/models/load is refused with 409
// and never serves; a good snapshot is admitted; after the live model
// degrades, the supervisor rolls back automatically and the server keeps
// answering estimates throughout. Lifecycle metrics land in /metrics.
func TestCanaryGateEndToEnd(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db, canaryWS, good, bad := lifecycleEnv(t)
	root := t.TempDir()
	lc, reg := newLifecycle(t, filepath.Join(root, "store"), looseCanary(canaryWS), db)

	// Write both snapshots under the model root.
	for name, loc := range map[string]*estimator.Local{"good.json": good, "bad.json": bad} {
		if err := os.WriteFile(filepath.Join(root, name), snapshotBytes(t, loc), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := New(Config{
		Registry:  reg,
		DB:        db,
		ModelRoot: root,
		Lifecycle: lc,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path string, body any) (int, map[string]any) {
		t.Helper()
		buf, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return resp.StatusCode, v
	}

	// Bootstrap: the good snapshot is admitted over HTTP.
	code, resp := post("/v1/models/load", map[string]any{"name": "live", "path": "good.json", "default": true})
	if code != http.StatusOK {
		t.Fatalf("good load: status %d body %v", code, resp)
	}

	// The bad snapshot is refused with 409 and the canary verdict; the
	// default and the store are untouched.
	genBefore, _ := lc.Store().Latest()
	code, resp = post("/v1/models/load", map[string]any{"name": "live", "path": "bad.json", "default": true})
	if code != http.StatusConflict {
		t.Fatalf("bad load: status %d body %v, want 409", code, resp)
	}
	if resp["canary"] == nil {
		t.Fatalf("409 body %v carries no canary verdict", resp)
	}
	if g, ok := lc.Store().Latest(); !ok || g.Number != genBefore.Number {
		t.Fatalf("store advanced to %+v/%v after a rejected load", g, ok)
	}

	// Path escapes are refused before any IO.
	for _, p := range []string{"../outside.json", "/etc/passwd"} {
		if code, resp := post("/v1/models/load", map[string]any{"name": "x", "path": p}); code != http.StatusBadRequest {
			t.Fatalf("escape %q: status %d body %v, want 400", p, code, resp)
		}
	}

	// Estimates flow, served by the admitted model.
	probe := canaryWS[0].Query.String()
	code, resp = post("/v1/estimate", map[string]any{"sql": probe})
	if code != http.StatusOK {
		t.Fatalf("estimate: status %d body %v", code, resp)
	}

	// Publish a second, degradable generation directly through the
	// lifecycle (the registry is shared with the listener), then degrade it
	// and let the supervisor roll back.
	inj := faultinject.New(good, faultinject.Config{Seed: 1})
	p2, err := lc.Publish(context.Background(), PublishSpec{
		Name: "live", Est: inj, Kind: "local",
		Snapshot: snapshotBytes(t, good), MakeDefault: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.SetConfig(faultinject.Config{Seed: 2, ErrorRate: 1})
	out, err := lc.Probe(context.Background())
	if err != nil || !out.RolledBack {
		t.Fatalf("supervised rollback: %+v err=%v", out, err)
	}

	// The server keeps answering after the rollback.
	code, resp = post("/v1/estimate", map[string]any{"sql": probe})
	if code != http.StatusOK {
		t.Fatalf("estimate after rollback: status %d body %v", code, resp)
	}

	// /v1/models shows the rolled-back generation with its canary verdict.
	getResp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models map[string]any
	if err := json.NewDecoder(getResp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	live := models["models"].([]any)[0].(map[string]any)
	if live["storeGeneration"] == float64(p2.Info.StoreGeneration) {
		t.Fatalf("live model still on degraded generation: %v", live)
	}
	if live["canary"] == nil {
		t.Fatalf("live model carries no canary status: %v", live)
	}

	// /metrics carries the lifecycle trail.
	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.NewDecoder(mResp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mResp.Body.Close()
	if snap["canary_fail_total"].(float64) < 2 { // bad load + degraded probe
		t.Errorf("canary_fail_total = %v, want >= 2", snap["canary_fail_total"])
	}
	if snap["rollbacks_total"].(float64) != 1 {
		t.Errorf("rollbacks_total = %v, want 1", snap["rollbacks_total"])
	}
	if snap["quarantined_total"].(float64) < 1 {
		t.Errorf("quarantined_total = %v, want >= 1", snap["quarantined_total"])
	}
	if snap["last_rollback_unix"].(float64) == 0 {
		t.Errorf("last_rollback_unix = 0 after a rollback")
	}
	if snap["store_generation"].(float64) == 0 {
		t.Errorf("store_generation = 0 with a store-backed live model")
	}
}

// TestRollbackEndpoint drives POST /v1/models/rollback over the handler.
func TestRollbackEndpoint(t *testing.T) {
	db, canaryWS, good, _ := lifecycleEnv(t)
	lc, reg := newLifecycle(t, t.TempDir(), looseCanary(canaryWS), db)
	publish := func() Publication {
		t.Helper()
		pub, err := lc.Publish(context.Background(), PublishSpec{
			Name: "live", Est: good, Kind: "local",
			Snapshot: snapshotBytes(t, good), MakeDefault: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pub
	}
	p1 := publish()
	publish()

	srv, err := New(Config{Registry: reg, DB: db, Lifecycle: lc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	if code, _ := getJSON(t, h, "/v1/models/rollback"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", code)
	}
	code, resp := postJSON(t, h, "/v1/models/rollback", map[string]any{"reason": "operator test"})
	if code != http.StatusOK {
		t.Fatalf("rollback: status %d body %v", code, resp)
	}
	info := resp["info"].(map[string]any)
	if info["storeGeneration"] != float64(p1.Info.StoreGeneration) {
		t.Errorf("rolled back to %v, want generation %d", info["storeGeneration"], p1.Info.StoreGeneration)
	}
	// Out of targets now (only one valid generation remains, and rolling
	// back quarantines it): 409.
	if code, resp := rawPost(t, h, "/v1/models/rollback", nil); code != http.StatusConflict {
		t.Errorf("rollback without target: status %d body %v, want 409", code, resp)
	}

	// Without a lifecycle the endpoint is 501.
	plain := newStubServer(t, constEst(1), nil)
	if code, _ := rawPost(t, plain.Handler(), "/v1/models/rollback", nil); code != http.StatusNotImplemented {
		t.Errorf("no lifecycle: status %d, want 501", code)
	}
}

// TestRollbackRecordsItsReason: /metrics says why the last rollback happened —
// "auto: " and the canary's verdict after a probe, the request's reason after
// a POST, "manual" after a POST that gives none. Rollback used to drop it.
func TestRollbackRecordsItsReason(t *testing.T) {
	db, canaryWS, good, _ := lifecycleEnv(t)
	lc, reg := newLifecycle(t, t.TempDir(), looseCanary(canaryWS), db)
	inj := faultinject.New(good, faultinject.Config{Seed: 1})
	for _, est := range []estimator.Estimator{good, good, good, inj} {
		if _, err := lc.Publish(context.Background(), PublishSpec{
			Name: "live", Est: est, Kind: "local",
			Snapshot: snapshotBytes(t, good), MakeDefault: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(Config{Registry: reg, DB: db, Lifecycle: lc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reason := func() any { return srv.Metrics().Snapshot()["last_rollback_reason"] }
	if got := reason(); got != "" {
		t.Errorf("before any rollback last_rollback_reason = %q, want empty", got)
	}

	inj.SetConfig(faultinject.Config{Seed: 2, ErrorRate: 1})
	out, err := lc.Probe(context.Background())
	if err != nil || !out.RolledBack {
		t.Fatalf("probe of a failing model: %+v err=%v, want a rollback", out, err)
	}
	if got, want := reason(), "auto: "+out.Result.Reason; got != want {
		t.Errorf("after a probe rollback last_rollback_reason = %q, want %q", got, want)
	}

	h := srv.Handler()
	if code, resp := postJSON(t, h, "/v1/models/rollback", map[string]any{"reason": "operator test"}); code != http.StatusOK {
		t.Fatalf("rollback with a reason: status %d body %v", code, resp)
	}
	if got := reason(); got != "operator test" {
		t.Errorf("after POST {\"reason\":\"operator test\"} last_rollback_reason = %q", got)
	}
	if code, resp := rawPost(t, h, "/v1/models/rollback", nil); code != http.StatusOK {
		t.Fatalf("rollback without a body: status %d body %v", code, resp)
	}
	if got := reason(); got != "manual" {
		t.Errorf("after a POST without a reason last_rollback_reason = %q, want %q", got, "manual")
	}
}

// TestModelRootConfinement covers resolveModelPath directly.
func TestModelRootConfinement(t *testing.T) {
	srv := newStubServer(t, constEst(1), func(c *Config) { c.ModelRoot = "/models" })
	cases := []struct {
		path string
		ok   bool
	}{
		{"a.json", true},
		{"sub/dir/a.json", true},
		{"/models/a.json", true},
		{"./a.json", true},
		{"sub/../a.json", true},
		{"../a.json", false},
		{"sub/../../a.json", false},
		{"/etc/passwd", false},
		{"/modelsX/a.json", false},
		{"..", false},
	}
	for _, c := range cases {
		_, err := srv.resolveModelPath(c.path)
		if (err == nil) != c.ok {
			t.Errorf("resolveModelPath(%q): err = %v, want ok=%v", c.path, err, c.ok)
		}
	}
	// Unrestricted when no root is configured.
	open := newStubServer(t, constEst(1), nil)
	if _, err := open.resolveModelPath("/anywhere/at/all"); err != nil {
		t.Errorf("no root: %v", err)
	}
}

// TestModelRootSymlinkEscape: a symlink planted inside the model root must
// not defeat confinement — containment is checked on the symlink-resolved
// path, not just the lexical one.
func TestModelRootSymlinkEscape(t *testing.T) {
	outside := t.TempDir()
	secret := filepath.Join(outside, "secret.json")
	if err := os.WriteFile(secret, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := os.Symlink(secret, filepath.Join(root, "link.json")); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
	if err := os.Symlink(outside, filepath.Join(root, "dir")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "ok.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := newStubServer(t, constEst(1), func(c *Config) { c.ModelRoot = root })
	for _, p := range []string{"link.json", "dir/secret.json"} {
		if got, err := srv.resolveModelPath(p); err == nil {
			t.Errorf("resolveModelPath(%q) = %q, want refusal (symlink escapes the root)", p, got)
		}
	}
	// Real files inside the root still resolve, as do not-yet-existing ones
	// (the subsequent read fails on its own).
	if _, err := srv.resolveModelPath("ok.json"); err != nil {
		t.Errorf("resolveModelPath(ok.json): %v", err)
	}
	if _, err := srv.resolveModelPath("missing.json"); err != nil {
		t.Errorf("resolveModelPath(missing.json): %v", err)
	}
}
