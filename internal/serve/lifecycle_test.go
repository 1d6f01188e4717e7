package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qfe/internal/cli"
	"qfe/internal/estimator"
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
	reg := newChainRegistry()
	lc, err := NewLifecycle(LifecycleConfig{Registry: reg, Store: st, DB: db, Canary: canary})
	if err != nil {
		tb.Fatal(err)
	}
	return lc, reg
}

// looseCanary passes any roughly-sane trained model but fails the poisoned
// one by orders of magnitude.
func looseCanary(ws workload.Set) CanaryConfig {
	return CanaryConfig{Workload: ws, MaxMedian: 1_000, MaxP95: 100_000}
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
	_, err := lc.Publish(context.Background(), PublishSpec{Name: "live", Source: "test", Snapshot: snapshotBytes(t, bad), MakeDefault: true})
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
	pub, err := lc.Publish(context.Background(), PublishSpec{Name: "live", Source: "test", Snapshot: snapshotBytes(t, good), MakeDefault: true})
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

// TestPublishRefusesBadSnapshots: the lifecycle decodes every model it admits,
// so bytes that are no snapshot, a snapshot of a table the serving database
// does not have, and one of a model type other than GB are refused at the
// door with ErrBadSnapshot — before any canary runs — and nothing is
// registered or persisted.
func TestPublishRefusesBadSnapshots(t *testing.T) {
	db, canaryWS, good, _ := lifecycleEnv(t)
	lc, reg := newLifecycle(t, t.TempDir(), looseCanary(canaryWS), db)
	snap := snapshotBytes(t, good)
	renamed := bytes.ReplaceAll(snap, []byte(`"forest"`), []byte(`"meadow"`))
	nn := bytes.Replace(snap, []byte(`"modelType":"GB"`), []byte(`"modelType":"NN"`), 1)
	if bytes.Equal(renamed, snap) || bytes.Equal(nn, snap) {
		t.Fatal("table name or model type not found in the snapshot — format changed?")
	}
	for name, doc := range map[string][]byte{
		"junk":          []byte("not a snapshot"),
		"empty":         nil,
		"truncated":     snap[:len(snap)/2],
		"foreign table": renamed,
		"NN model":      nn, // GB is the one model type served
	} {
		pub, err := lc.Publish(context.Background(), PublishSpec{Name: "live", Snapshot: doc, MakeDefault: true})
		if !errors.Is(err, ErrBadSnapshot) || errors.Is(err, ErrCanaryRejected) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
		if pub.Canary.Queries != 0 {
			t.Errorf("%s: the canary ran (%+v) on bytes that decode to no model", name, pub.Canary)
		}
	}
	if models, _ := reg.List(); len(models) != 0 {
		t.Errorf("registry holds %v after refused publishes", models)
	}
	if g, ok := lc.Store().Latest(); ok {
		t.Errorf("store holds generation %+v after refused publishes", g)
	}
	if m := lc.metrics.Snapshot(); m["canary_pass_total"] != int64(0) || m["canary_fail_total"] != int64(0) {
		t.Errorf("canary verdicts %v / %v for bytes no canary judged", m["canary_pass_total"], m["canary_fail_total"])
	}
}

// TestSideModelsAreNotPersisted: only a publish that makes the default becomes
// a store generation. A side model is still judged by the canary and
// registered, but it used to be persisted too, and the store walk takes the
// newest generation: publish live (gen 1), side without default (gen 2), live
// (gen 3), and a rollback served gen 2 "(published as side)" as the default,
// and so did a restart after it.
func TestSideModelsAreNotPersisted(t *testing.T) {
	db, canaryWS, good, _ := lifecycleEnv(t)
	dir := t.TempDir()
	lc, reg := newLifecycle(t, dir, looseCanary(canaryWS), db)
	snap := snapshotBytes(t, good)
	var pubs []Publication
	for _, spec := range []PublishSpec{
		{Name: "live", Snapshot: snap, MakeDefault: true},
		{Name: "side", Snapshot: snap},
		{Name: "live", Snapshot: snap, MakeDefault: true},
	} {
		pub, err := lc.Publish(context.Background(), spec)
		if err != nil || !pub.Canary.Pass {
			t.Fatalf("publish %s: %+v, %v", spec.Name, pub, err)
		}
		pubs = append(pubs, pub)
	}
	if side := pubs[1].Info; side.StoreGeneration != 0 {
		t.Errorf("side model persisted as generation %d", side.StoreGeneration)
	}
	if _, info, err := reg.Resolve("side"); err != nil || info.Canary == nil || !info.Canary.Pass {
		t.Errorf("side model = %+v (err %v), want registered with its passing canary", info, err)
	}
	first := pubs[0].Info.StoreGeneration
	if first != 1 || pubs[2].Info.StoreGeneration != 2 {
		t.Fatalf("live published as generations %d and %d, want 1 and 2", first, pubs[2].Info.StoreGeneration)
	}

	want := "store:gen-1"
	rb, err := lc.Rollback(context.Background(), "test")
	if err != nil || rb.Info.StoreGeneration != first || rb.Info.Source != want {
		t.Fatalf("rollback serves %+v (err %v), want %s", rb.Info, err, want)
	}
	lc2, _ := newLifecycle(t, dir, looseCanary(canaryWS), db)
	rec, ok, err := lc2.Recover(context.Background(), "live", true)
	if err != nil || !ok || rec.Info.Source != want {
		t.Fatalf("restart recovers %+v (ok %v, err %v), want %s", rec.Info, ok, err, want)
	}
}

func TestLifecycleRecoverAcrossRestart(t *testing.T) {
	db, canaryWS, good, _ := lifecycleEnv(t)
	dir := t.TempDir()
	lc, _ := newLifecycle(t, dir, looseCanary(canaryWS), db)
	pub, err := lc.Publish(context.Background(), PublishSpec{Name: "live", Snapshot: snapshotBytes(t, good), MakeDefault: true})
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
		pub, err := lc.Publish(context.Background(), PublishSpec{Name: "live", Snapshot: snapshotBytes(t, good), MakeDefault: true})
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
		if _, err := lc.Publish(context.Background(), PublishSpec{Name: "live", Snapshot: snapshotBytes(t, good), MakeDefault: true}); err != nil {
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
// (which would wedge publishes and the rollback endpoint).
func TestQuarantineFailureAbortsWalk(t *testing.T) {
	db, canaryWS, _, bad := lifecycleEnv(t)
	dir := t.TempDir()

	// Admit the bad model through an empty canary (always passes) so the
	// store holds a generation the real canary will reject at recover time.
	lc, _ := newLifecycle(t, dir, CanaryConfig{}, db)
	if _, err := lc.Publish(context.Background(), PublishSpec{Name: "live", Snapshot: snapshotBytes(t, bad), MakeDefault: true}); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(dir, store.Options{FS: quarantineFailFS{store.OSFS()}})
	if err != nil {
		t.Fatal(err)
	}
	lc2, err := NewLifecycle(LifecycleConfig{Registry: newChainRegistry(), Store: st, DB: db, Canary: looseCanary(canaryWS)})
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

// TestLoadRefusesDeletedSnapshotKinds: earlier builds could write "global"
// and "hybrid" documents and this one reads neither. A well-formed one —
// a real local snapshot under the other name, or inside a hybrid's envelope —
// POSTed to /v1/models/load is the client's error whether the server was
// given no lifecycle (it builds one with no store) or a store-backed one, and
// registers and persists nothing.
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
		{"no lifecycle", Config{Registry: newChainRegistry(), DB: db, ModelRoot: root}},
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
// and never serves; a good snapshot is admitted, twice; POST
// /v1/models/rollback quarantines the newer generation and promotes the
// older, and the server keeps answering estimates throughout. Lifecycle
// metrics land in /metrics.
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

	// A second generation, then an operator's rollback to the first.
	code, resp = post("/v1/models/load", map[string]any{"name": "live", "path": "good.json", "default": true})
	if code != http.StatusOK {
		t.Fatalf("second good load: status %d body %v", code, resp)
	}
	p2, _ := lc.Store().Latest()
	code, resp = post("/v1/models/rollback", map[string]any{"reason": "end to end"})
	if code != http.StatusOK {
		t.Fatalf("rollback: status %d body %v", code, resp)
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
	if live["storeGeneration"] != float64(genBefore.Number) || genBefore.Number == p2.Number {
		t.Fatalf("live model %v, want generation %d back from %d", live, genBefore.Number, p2.Number)
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
	if snap["canary_fail_total"].(float64) != 1 { // the bad load
		t.Errorf("canary_fail_total = %v, want 1", snap["canary_fail_total"])
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
	if snap["store_generation"].(float64) != float64(genBefore.Number) {
		t.Errorf("store_generation = %v, want the rolled-back-to %d", snap["store_generation"], genBefore.Number)
	}
}

// TestCanaryRerunMatchesBaseline is the invariant that lets a published model
// go unprobed: after each transition that admits the live model — Recover,
// Publish, Rollback — the canary re-run on the live bare estimator over the
// held-out set reproduces the admitting run /v1/models shows bit for bit,
// while four goroutines estimate through the registry. A periodic probe could
// only repeat the admission verdict, or fail on its wall-clock timeout and
// quarantine a good generation; and the incumbent a candidate default is held
// to, scored again at the door, is the run that admitted it.
func TestCanaryRerunMatchesBaseline(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db, set := testEnv(t)
	ctx := context.Background()
	t.Run("GB", func(t *testing.T) {
		loc, err := cli.NewLocalEstimator(db, cli.TrainSpec{Entries: 8, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := loc.Train(set[:300]); err != nil {
			t.Fatal(err)
		}
		spec := PublishSpec{Name: "live", Snapshot: snapshotBytes(t, loc), MakeDefault: true}
		dir := t.TempDir()
		first, _ := newLifecycle(t, dir, looseCanary(set[500:600]), db)
		if _, err := first.Publish(ctx, spec); err != nil {
			t.Fatal(err)
		}

		lc, reg := newLifecycle(t, dir, looseCanary(set[500:600]), db)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var served atomic.Int64
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; ; i += 4 {
					select {
					case <-stop:
						return
					default:
					}
					est, _, err := reg.Resolve("")
					if err != nil { // nothing recovered yet
						runtime.Gosched()
						continue
					}
					if _, err := est.Estimate(set[i%len(set)].Query); err == nil {
						served.Add(1)
					}
				}
			}()
		}
		defer func() {
			close(stop)
			wg.Wait()
			if served.Load() == 0 {
				t.Error("no estimate was served beside the canary re-runs")
			}
		}()

		check := func(step string) {
			t.Helper()
			_, info, err := reg.Resolve("")
			if err != nil || info.Canary == nil {
				t.Fatalf("after %s the default is %+v (err %v), want one with its canary run", step, info, err)
			}
			base := *info.Canary
			lc.mu.Lock()
			defer lc.mu.Unlock()
			res := RunCanary(ctx, lc.live.bare, lc.canary, &base)
			if !res.Pass || res.Queries != base.Queries ||
				math.Float64bits(res.Median) != math.Float64bits(base.Median) || math.Float64bits(res.P95) != math.Float64bits(base.P95) {
				t.Errorf("after %s the re-run reads median %v / p95 %v over %d (pass %v), the baseline %v / %v over %d",
					step, res.Median, res.P95, res.Queries, res.Pass, base.Median, base.P95, base.Queries)
			}
		}
		if _, ok, err := lc.Recover(ctx, "live", true); err != nil || !ok {
			t.Fatalf("recover: ok=%v err=%v", ok, err)
		}
		check("Recover")
		if _, err := lc.Publish(ctx, spec); err != nil {
			t.Fatal(err)
		}
		check("Publish")
		if _, err := lc.Rollback(ctx, "test"); err != nil {
			t.Fatal(err)
		}
		check("Rollback")
	})
}

// TestLoadUnderTheLiveNameMovesTheLiveModel: POST /v1/models/load under the
// live model's name replaces the default whether or not it says "default".
// Without "default" the lifecycle used to keep tracking the generation it
// replaced: /metrics reported that one as store_generation, and the next
// rollback quarantined it — the good one — and promoted the one just loaded.
func TestLoadUnderTheLiveNameMovesTheLiveModel(t *testing.T) {
	db, canaryWS, good, _ := lifecycleEnv(t)
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "good.json"), snapshotBytes(t, good), 0o644); err != nil {
		t.Fatal(err)
	}
	lc, reg := newLifecycle(t, filepath.Join(root, "store"), looseCanary(canaryWS), db)
	srv, err := New(Config{Registry: reg, DB: db, ModelRoot: root, Lifecycle: lc})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for _, body := range []map[string]any{
		{"name": "live", "path": "good.json", "default": true},
		{"name": "live", "path": "good.json"},
	} {
		if code, resp := postJSON(t, h, "/v1/models/load", body); code != http.StatusOK {
			t.Fatalf("load %v: status %d body %v", body, code, resp)
		}
	}
	if got := srv.Metrics().Snapshot()["store_generation"]; got != uint64(2) {
		t.Errorf("store_generation = %v after the second load of live, want 2", got)
	}
	code, resp := rawPost(t, h, "/v1/models/rollback", nil)
	if code != http.StatusOK {
		t.Fatalf("rollback: status %d body %v", code, resp)
	}
	if info, _ := resp["info"].(map[string]any); info["storeGeneration"] != float64(1) {
		t.Errorf("rollback serves %v, want store generation 1", resp["info"])
	}
	if g, ok := lc.Store().Latest(); !ok || g.Number != 1 {
		t.Errorf("store latest after the rollback = %+v/%v, want generation 1 still valid", g, ok)
	}
}

// TestNewRefusesAForeignLifecycle: a lifecycle that publishes into another
// registry than the server resolves from would answer a load with 200 and
// leave the model where neither /v1/estimate nor GET /v1/models looks, so New
// refuses the pair. A server needs a DB of its own even over a lifecycle with
// one: it binds every query it is sent.
func TestNewRefusesAForeignLifecycle(t *testing.T) {
	db, _ := testEnv(t)
	reg := newChainRegistry()
	foreign, err := NewLifecycle(LifecycleConfig{Registry: newChainRegistry(), DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if srv, err := New(Config{Registry: reg, DB: db, Lifecycle: foreign}); err == nil || srv != nil {
		t.Fatalf("New over a lifecycle of another registry = %v, %v; want an error", srv, err)
	}
	own, err := NewLifecycle(LifecycleConfig{Registry: reg, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if srv, err := New(Config{Registry: reg, Lifecycle: own}); err == nil || srv != nil {
		t.Fatalf("New without a DB = %v, %v; want an error", srv, err)
	}
	if _, err := New(Config{Registry: reg, DB: db, Lifecycle: own}); err != nil {
		t.Fatalf("New over the registry's own lifecycle: %v", err)
	}
}

// TestRollbackEndpoint drives POST /v1/models/rollback over the handler.
func TestRollbackEndpoint(t *testing.T) {
	db, canaryWS, good, _ := lifecycleEnv(t)
	lc, reg := newLifecycle(t, t.TempDir(), looseCanary(canaryWS), db)
	publish := func() Publication {
		t.Helper()
		pub, err := lc.Publish(context.Background(), PublishSpec{Name: "live", Snapshot: snapshotBytes(t, good), MakeDefault: true})
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

	// A store-backed lifecycle that has published nothing has no target: 409.
	empty, emptyReg := newLifecycle(t, t.TempDir(), looseCanary(canaryWS), db)
	emptySrv, err := New(Config{Registry: emptyReg, DB: db, Lifecycle: empty})
	if err != nil {
		t.Fatal(err)
	}
	defer emptySrv.Close()
	if code, resp := rawPost(t, emptySrv.Handler(), "/v1/models/rollback", nil); code != http.StatusConflict {
		t.Errorf("rollback before any publish: status %d body %v, want 409", code, resp)
	}

	// Without a lifecycle the endpoint is 501.
	plain := newStubServer(t, constEst(1), nil)
	if code, _ := rawPost(t, plain.Handler(), "/v1/models/rollback", nil); code != http.StatusNotImplemented {
		t.Errorf("no lifecycle: status %d, want 501", code)
	}
}

// TestRollbackStoreFaultIs500: a store that cannot quarantine the live
// generation fails the rollback on the server's side, not the client's: 500,
// the incumbent still the default, and both generations still valid.
func TestRollbackStoreFaultIs500(t *testing.T) {
	db, canaryWS, good, _ := lifecycleEnv(t)
	st, err := store.Open(t.TempDir(), store.Options{FS: quarantineFailFS{store.OSFS()}})
	if err != nil {
		t.Fatal(err)
	}
	reg := newChainRegistry()
	lc, err := NewLifecycle(LifecycleConfig{Registry: reg, Store: st, DB: db, Canary: looseCanary(canaryWS)})
	if err != nil {
		t.Fatal(err)
	}
	var live Publication
	for i := 0; i < 2; i++ {
		if live, err = lc.Publish(context.Background(), PublishSpec{Name: "live", Snapshot: snapshotBytes(t, good), MakeDefault: true}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(Config{Registry: reg, DB: db, Lifecycle: lc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if code, resp := rawPost(t, srv.Handler(), "/v1/models/rollback", nil); code != http.StatusInternalServerError {
		t.Errorf("rollback over a store that cannot quarantine: status %d body %v, want 500", code, resp)
	}
	if _, info, err := reg.Resolve(""); err != nil || info.StoreGeneration != live.Info.StoreGeneration {
		t.Errorf("default after the failed rollback = %+v (err %v), want generation %d", info, err, live.Info.StoreGeneration)
	}
	if got := len(st.Generations()); got != 2 {
		t.Errorf("%d valid generations after the failed rollback, want 2", got)
	}
}

// TestRollbackRecordsItsReason: /metrics says why the last rollback happened —
// the request's reason after a POST, "manual" after a POST that gives none.
// Rollback used to drop it.
func TestRollbackRecordsItsReason(t *testing.T) {
	db, canaryWS, good, _ := lifecycleEnv(t)
	lc, reg := newLifecycle(t, t.TempDir(), looseCanary(canaryWS), db)
	for i := 0; i < 3; i++ {
		if _, err := lc.Publish(context.Background(), PublishSpec{Name: "live", Snapshot: snapshotBytes(t, good), MakeDefault: true}); err != nil {
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
