package serve

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"qfe/internal/estimator"
	"qfe/internal/resilience"
	"qfe/internal/sqlparse"
)

// answerOf is what a resolved chain answers for any query of a constEst.
func answerOf(est *resilience.Resilient) float64 {
	v, _ := est.Estimate(nil)
	return v
}

func TestRegistryDefaultAndResolve(t *testing.T) {
	r := newChainRegistry()
	if _, _, err := r.Resolve(""); err == nil {
		t.Error("empty registry resolved a default")
	}

	if _, err := r.Register("", constEst(1), ModelInfo{}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := r.Register("x", nil, ModelInfo{}); err == nil {
		t.Error("nil estimator accepted")
	}

	if _, err := r.Register("b", constEst(2), ModelInfo{Kind: "stub"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("a", constEst(1), ModelInfo{Kind: "stub"}); err != nil {
		t.Fatal(err)
	}

	// The first registration is the default, under "", "default", and List.
	for _, name := range []string{"", "default", "b"} {
		est, info, err := r.Resolve(name)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", name, err)
		}
		if answerOf(est) != 2 || info.Name != "b" {
			t.Errorf("Resolve(%q) = %v/%v, want model b", name, est, info.Name)
		}
	}
	if _, _, err := r.Resolve("nope"); err == nil {
		t.Error("unknown model resolved")
	}

	models, def := r.List()
	if def != "b" || len(models) != 2 || models[0].Name != "a" || models[1].Name != "b" {
		t.Errorf("List = %v default %q, want [a b] / b", models, def)
	}

	if err := r.SetDefault("nope"); err == nil {
		t.Error("SetDefault accepted an unknown model")
	}
	if err := r.SetDefault("a"); err != nil {
		t.Fatal(err)
	}
	if est, _, _ := r.Resolve(""); answerOf(est) != 1 {
		t.Errorf("after SetDefault(a), default resolves to %v", est)
	}
}

func TestRegistryReplaceBumpsGeneration(t *testing.T) {
	r := newChainRegistry()
	i1, err := r.Register("m", constEst(1), ModelInfo{})
	if err != nil {
		t.Fatal(err)
	}
	i2, err := r.Register("m", constEst(2), ModelInfo{})
	if err != nil {
		t.Fatal(err)
	}
	if i2.Generation <= i1.Generation {
		t.Errorf("generations %d then %d; replacement must advance", i1.Generation, i2.Generation)
	}
	est, info, err := r.Resolve("m")
	if err != nil {
		t.Fatal(err)
	}
	if answerOf(est) != 2 || info.Generation != i2.Generation {
		t.Errorf("resolved %v gen %d, want the replacement", est, info.Generation)
	}
	if models, _ := r.List(); len(models) != 1 {
		t.Errorf("replacement duplicated the entry: %v", models)
	}
}

// wrapEst is a wrapper that is no resilience chain.
type wrapEst struct{ inner estimator.Estimator }

func (w wrapEst) Name() string { return "wrapped(" + w.inner.Name() + ")" }
func (w wrapEst) Estimate(q *sqlparse.Query) (float64, error) {
	v, err := w.inner.Estimate(q)
	return v * 2, err
}

// TestRegistryWrap: what Wrap returns is what the registry serves and
// names, and a chain registered as it is needs no Wrap.
func TestRegistryWrap(t *testing.T) {
	r := NewRegistry()
	r.Wrap = func(e estimator.Estimator) estimator.Estimator {
		return resilience.NewResilient(resilience.Config{}, resilience.Stage{Est: wrapEst{inner: e}})
	}
	info, err := r.Register("m", constEst(21), ModelInfo{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Estimator != "resilient(wrapped(const))" {
		t.Errorf("info.Estimator = %q, want the chain's name", info.Estimator)
	}
	est, _, err := r.Resolve("m")
	if err != nil {
		t.Fatal(err)
	}
	if v := answerOf(est); v != 42 {
		t.Errorf("wrapped estimate = %v, want 42", v)
	}

	direct := NewRegistry()
	chain := resilience.NewResilient(resilience.Config{}, resilience.Stage{Est: constEst(5)})
	if _, err := direct.Register("m", chain, ModelInfo{}); err != nil {
		t.Fatalf("a chain registered without Wrap: %v", err)
	}
	if est, _, _ := direct.Resolve("m"); est != chain {
		t.Errorf("resolved %p, want the registered chain %p", est, chain)
	}
}

// TestRegisterRefusesBareModels: the server serves chains only, so a model
// that would reach the registry bare — no Wrap, or a Wrap that returns
// something other than a *resilience.Resilient, nil included — is refused
// by name, and registers nothing.
func TestRegisterRefusesBareModels(t *testing.T) {
	for _, c := range []struct {
		name string
		wrap func(estimator.Estimator) estimator.Estimator
	}{
		{"no Wrap", nil},
		{"a Wrap that is no chain", func(e estimator.Estimator) estimator.Estimator { return wrapEst{inner: e} }},
		{"a Wrap that returns nil", func(estimator.Estimator) estimator.Estimator { return nil }},
		{"a Wrap that returns a nil chain", func(estimator.Estimator) estimator.Estimator { return (*resilience.Resilient)(nil) }},
	} {
		r := NewRegistry()
		r.Wrap = c.wrap
		_, err := r.Register("bare", constEst(3), ModelInfo{})
		if err == nil || !strings.Contains(err.Error(), `"bare"`) || !strings.Contains(err.Error(), "resilience.Resilient") {
			t.Errorf("%s: Register = %v, want a refusal naming the model and the chain", c.name, err)
		}
		if models, _ := r.List(); len(models) != 0 {
			t.Errorf("%s: the refused model was registered: %v", c.name, models)
		}
	}
}

// TestModelsReportTheWrappedModel: under the resilience chain the daemon puts
// in front of every model (the default -timeout arms it), GET /v1/models
// reports the GB model's own size and model count, not the wrapper's zeros,
// and names the wrapper as the estimator that serves.
func TestModelsReportTheWrappedModel(t *testing.T) {
	db, set := testEnv(t)
	loc := trainLocal(t, db, set[:200], 8)
	reg := NewRegistry()
	reg.Wrap = func(e estimator.Estimator) estimator.Estimator {
		return resilience.NewResilient(resilience.Config{Timeout: time.Second, LastResort: resilience.RowCount{DB: db}},
			resilience.Stage{Name: "learned", Est: e})
	}
	if _, err := reg.Register("boot", loc, ModelInfo{Kind: estimator.KindLocal, Source: "boot"}); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Registry: reg, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	code, resp := getJSON(t, srv.Handler(), "/v1/models")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	m := resp["models"].([]any)[0].(map[string]any)
	if mem, _ := m["memoryBytes"].(float64); loc.MemoryBytes() == 0 || int(mem) != loc.MemoryBytes() {
		t.Errorf("memoryBytes = %v, want the model's %d", m["memoryBytes"], loc.MemoryBytes())
	}
	if n, _ := m["models"].(float64); int(n) != loc.NumModels() {
		t.Errorf("models = %v, want the model's %d", m["models"], loc.NumModels())
	}
	if name, _ := m["estimator"].(string); name == loc.Name() {
		t.Errorf("estimator = %q, want the wrapper's name", name)
	}
}

// TestRegistryConcurrentSwap hammers Resolve/List from readers while a
// writer keeps replacing the entry; run with -race. Readers must always see
// a fully-formed entry — one of the registered values, never nil, never a
// partial snapshot.
func TestRegistryConcurrentSwap(t *testing.T) {
	r := newChainRegistry()
	if _, err := r.Register("m", constEst(1), ModelInfo{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				est, info, err := r.Resolve("")
				if err != nil || est == nil || info.Name != "m" {
					t.Errorf("Resolve during swap: est=%v info=%v err=%v", est, info, err)
					return
				}
				if models, def := r.List(); def != "m" || len(models) != 1 {
					t.Errorf("List during swap: %v / %q", models, def)
					return
				}
			}
		}()
	}
	for i := 1; i <= 200; i++ {
		if _, err := r.Register("m", constEst(i), ModelInfo{}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if est, _, _ := r.Resolve("m"); answerOf(est) != 200 {
		t.Errorf("final entry = %v, want the last write", est)
	}
}

// TestRegistryLoadFile: a snapshot file reaches the registry only through
// POST /v1/models/load, which a server configured without a lifecycle still
// publishes through one with no store and no canary workload. A missing or
// junk file, or a snapshot of a model no binary serves, is the client's 400
// and registers nothing; a real snapshot is
// admitted, reports its kind, source and model count, and honors "default".
func TestRegistryLoadFile(t *testing.T) {
	r := newChainRegistry()
	db, set := testEnv(t)
	srv, err := New(Config{Registry: r, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(junk, []byte("definitely not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A snapshot of a featurization or a label transform only the harness
	// trains (a baseline QFT, abl4's raw labels) decodes to no served model.
	snap := snapshotBytes(t, trainLocal(t, db, set[:200], 8))
	paths := []string{"/no/such/file.json", junk}
	for name, from := range map[string]string{"simple": `"qft":"conjunctive"`, "range": `"qft":"conjunctive"`, "raw": `"rawLabels":false`} {
		to := `"qft":"` + name + `"`
		if name == "raw" {
			to = `"rawLabels":true`
		}
		doc := bytes.Replace(snap, []byte(from), []byte(to), 1)
		if bytes.Equal(doc, snap) {
			t.Fatalf("%s not found in the snapshot — format changed?", from)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	for _, path := range paths {
		if code, resp := postJSON(t, h, "/v1/models/load", map[string]any{"name": "m", "path": path}); code != http.StatusBadRequest {
			t.Errorf("load of %s: status %d body %v, want 400", path, code, resp)
		}
	}
	if models, _ := r.List(); len(models) != 0 {
		t.Errorf("failed loads left entries behind: %v", models)
	}

	// A real snapshot loads, registers, and can be made the default.
	path := filepath.Join(dir, "m.json")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	code, resp := postJSON(t, h, "/v1/models/load", map[string]any{"name": "real", "path": path, "default": true})
	if code != http.StatusOK {
		t.Fatalf("load of a real snapshot: status %d body %v", code, resp)
	}
	info, _ := resp["info"].(map[string]any)
	if info["kind"] != estimator.KindLocal || info["source"] != path || info["models"] == nil {
		t.Errorf("info = %v, want kind local, the file path, and a model count", info)
	}
	if canary, _ := resp["canary"].(map[string]any); canary["pass"] != true || canary["reason"] != "no canary workload configured" {
		t.Errorf("canary = %v, want a pass with no canary workload configured", resp["canary"])
	}
	if _, def := r.List(); def != "real" {
		t.Errorf("default = %q, want real (the load asked for it)", def)
	}
	if _, _, err := r.Resolve(""); err != nil {
		t.Errorf("default resolve after the load: %v", err)
	}
	if got := srv.Metrics().Snapshot()["model_swaps_total"]; got != int64(1) {
		t.Errorf("model_swaps_total = %v after one load, want 1", got)
	}
}
