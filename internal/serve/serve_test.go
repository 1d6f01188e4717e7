package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/ml/gb"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/testutil"
	"qfe/internal/workload"
)

// ---- shared fixtures ----

var (
	envOnce sync.Once
	envDB   *table.DB
	envSet  workload.Set
	envErr  error
)

// testEnv builds (once) a small forest database plus a labeled conjunctive
// workload for the tests that need real estimators.
func testEnv(tb testing.TB) (*table.DB, workload.Set) {
	tb.Helper()
	envOnce.Do(func() {
		tbl, err := dataset.Forest(dataset.ForestConfig{Rows: 3000, QuantAttrs: 5, BinaryAttrs: 1, Seed: 7})
		if err != nil {
			envErr = err
			return
		}
		db := table.NewDB()
		db.MustAdd(tbl)
		set, err := workload.Conjunctive(tbl, workload.ConjConfig{Count: 900, MaxAttrs: 4, MaxNotEquals: 2, Seed: 3})
		if err != nil {
			envErr = err
			return
		}
		envDB, envSet = db, set
	})
	if envErr != nil {
		tb.Fatal(envErr)
	}
	return envDB, envSet
}

// trainLocal fits a small GB-backed conjunctive-QFT local estimator on train.
func trainLocal(tb testing.TB, db *table.DB, train workload.Set, entries int) *estimator.Local {
	tb.Helper()
	return trainLocalQFT(tb, db, "conjunctive", train, entries)
}

// trainLocalQFT is trainLocal for any QFT.
func trainLocalQFT(tb testing.TB, db *table.DB, qft string, train workload.Set, entries int) *estimator.Local {
	tb.Helper()
	cfg := gb.DefaultConfig()
	cfg.NumTrees = 40
	cfg.MaxDepth = 5
	cfg.Seed = 1
	loc, err := estimator.NewLocal(db, estimator.LocalConfig{
		NewFeaturizer: func(m *core.TableMeta, o core.Options) core.Featurizer { f, _ := core.New(qft, m, o); return f },
		Opts:          core.Options{MaxEntriesPerAttr: entries, AttrSel: true},
		NewRegressor:  estimator.NewGBFactory(cfg),
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := loc.Train(train); err != nil {
		tb.Fatal(err)
	}
	return loc
}

// constEst answers every query with a fixed value; it keeps handler tests
// independent of model training.
type constEst float64

func (c constEst) Name() string                              { return "const" }
func (c constEst) Estimate(*sqlparse.Query) (float64, error) { return float64(c), nil }

// errEst always fails, driving the 422 path.
type errEst struct{}

func (errEst) Name() string { return "err" }
func (errEst) Estimate(*sqlparse.Query) (float64, error) {
	return 0, fmt.Errorf("no model for this sub-schema")
}

// blockingEst signals each call on started, then blocks until release closes.
// It makes admission and drain tests deterministic.
type blockingEst struct {
	started chan struct{}
	release chan struct{}
}

func (b *blockingEst) Name() string { return "blocking" }
func (b *blockingEst) Estimate(*sqlparse.Query) (float64, error) {
	b.started <- struct{}{}
	<-b.release
	return 42, nil
}

// stubSQL binds against stubDB, the stub servers' database.
const stubSQL = "SELECT count(*) FROM t WHERE a >= 1"

// stubDB is what the stub servers bind against: a table t with integer
// columns a and b and string columns s and n.
func stubDB() *table.DB {
	t := table.New("t")
	t.MustAddColumn(table.NewColumn("a", []int64{0, 5, 9}))
	t.MustAddColumn(table.NewColumn("b", []int64{1, 2, 3}))
	t.MustAddColumn(table.NewStringColumn("s", []string{"x", "it's", "<b>"}))
	t.MustAddColumn(table.NewStringColumn("n", []string{"ab", "abc", "b"}))
	db := table.NewDB()
	db.MustAdd(t)
	return db
}

// newStubServer builds a server around a single registered stub estimator.
// Every stub-server test also verifies that the server leaves no goroutine
// behind — without calling Close: New starts none.
func newStubServer(tb testing.TB, est estimator.Estimator, mutate func(*Config)) *Server {
	tb.Helper()
	testutil.VerifyNoLeaks(tb)
	reg := NewRegistry()
	if _, err := reg.Register("stub", est, ModelInfo{Kind: "stub", Source: "test"}); err != nil {
		tb.Fatal(err)
	}
	cfg := Config{Registry: reg, DB: stubDB()}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// postJSON posts body to path on h and returns the status code plus the
// decoded JSON response.
func postJSON(tb testing.TB, h http.Handler, path string, body any) (int, map[string]any) {
	tb.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		tb.Fatal(err)
	}
	return rawPost(tb, h, path, buf)
}

func rawPost(tb testing.TB, h http.Handler, path string, body []byte) (int, map[string]any) {
	tb.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var v map[string]any
	if len(bytes.TrimSpace(rec.Body.Bytes())) > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			tb.Fatalf("response %q is not JSON: %v", rec.Body.String(), err)
		}
	}
	return rec.Code, v
}

func getJSON(tb testing.TB, h http.Handler, path string) (int, map[string]any) {
	tb.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var v map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		tb.Fatalf("response %q is not JSON: %v", rec.Body.String(), err)
	}
	return rec.Code, v
}

// ---- handler behavior ----

func TestEstimateSingle(t *testing.T) {
	srv := newStubServer(t, constEst(42), nil)
	h := srv.Handler()

	code, resp := postJSON(t, h, "/v1/estimate", map[string]any{"sql": stubSQL, "actual": 84})
	if code != http.StatusOK {
		t.Fatalf("status %d, body %v", code, resp)
	}
	if resp["estimate"] != 42.0 {
		t.Errorf("estimate = %v, want 42", resp["estimate"])
	}
	if resp["model"] != "stub" {
		t.Errorf("model = %v, want stub", resp["model"])
	}

	snap := srv.Metrics().Snapshot()
	if snap["requests_total"] != int64(1) || snap["queries_total"] != int64(1) {
		t.Errorf("metrics: %v requests / %v queries, want 1 / 1", snap["requests_total"], snap["queries_total"])
	}
	// actual=84 vs estimate=42 is a q-error of 2; it must land in the
	// histogram.
	qe := snap["qerror"].(map[string]any)
	if qe["count"] != int64(1) {
		t.Errorf("qerror count = %v, want 1 (feedback was supplied)", qe["count"])
	}
}

func TestEstimateBatch(t *testing.T) {
	srv := newStubServer(t, constEst(7), nil)
	h := srv.Handler()

	code, resp := postJSON(t, h, "/v1/estimate", map[string]any{
		"queries": []map[string]any{
			{"sql": stubSQL},
			{"sql": "this is not sql"},
			{"sql": stubSQL, "actual": 7},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("status %d, body %v", code, resp)
	}
	results, ok := resp["results"].([]any)
	if !ok || len(results) != 3 {
		t.Fatalf("results = %v, want 3 entries", resp["results"])
	}
	r0 := results[0].(map[string]any)
	r1 := results[1].(map[string]any)
	r2 := results[2].(map[string]any)
	if r0["estimate"] != 7.0 || r2["estimate"] != 7.0 {
		t.Errorf("good items: estimates %v / %v, want 7 / 7", r0["estimate"], r2["estimate"])
	}
	if r1["error"] == nil || r1["error"] == "" {
		t.Errorf("malformed item: error = %v, want a parse error", r1["error"])
	}

	snap := srv.Metrics().Snapshot()
	if snap["requests_total"] != int64(1) {
		t.Errorf("requests_total = %v, want 1", snap["requests_total"])
	}
	if snap["queries_total"] != int64(2) {
		t.Errorf("queries_total = %v, want 2 (parseable items only)", snap["queries_total"])
	}
	if snap["estimate_errors_total"] != int64(1) {
		t.Errorf("estimate_errors_total = %v, want 1", snap["estimate_errors_total"])
	}
	if snap["batched_queries_total"] != int64(2) {
		t.Errorf("batched_queries_total = %v, want 2", snap["batched_queries_total"])
	}
	qe := snap["qerror"].(map[string]any)
	if qe["count"] != int64(1) {
		t.Errorf("qerror count = %v, want 1 (one item carried feedback)", qe["count"])
	}
}

func TestEstimateValidation(t *testing.T) {
	var fed atomic.Int64 // what the journal would have been handed
	srv := newStubServer(t, constEst(1), func(c *Config) {
		c.Cache = CacheConfig{Entries: 16}
		c.Feedback = func(FeedbackEvent) { fed.Add(1) }
	})
	h := srv.Handler()

	t.Run("method", func(t *testing.T) {
		code, _ := getJSON(t, h, "/v1/estimate")
		if code != http.StatusMethodNotAllowed {
			t.Errorf("GET: status %d, want 405", code)
		}
	})
	t.Run("bad json", func(t *testing.T) {
		code, resp := rawPost(t, h, "/v1/estimate", []byte("{nope"))
		if code != http.StatusBadRequest || resp["error"] == nil {
			t.Errorf("status %d body %v, want 400 with error", code, resp)
		}
	})
	t.Run("unknown field", func(t *testing.T) {
		code, _ := rawPost(t, h, "/v1/estimate", []byte(`{"sql":"x","bogus":1}`))
		if code != http.StatusBadRequest {
			t.Errorf("status %d, want 400", code)
		}
	})
	t.Run("neither sql nor queries", func(t *testing.T) {
		code, _ := rawPost(t, h, "/v1/estimate", []byte(`{}`))
		if code != http.StatusBadRequest {
			t.Errorf("status %d, want 400", code)
		}
	})
	t.Run("both sql and queries", func(t *testing.T) {
		code, _ := postJSON(t, h, "/v1/estimate", map[string]any{
			"sql": stubSQL, "queries": []map[string]any{{"sql": stubSQL}},
		})
		if code != http.StatusBadRequest {
			t.Errorf("status %d, want 400", code)
		}
	})
	t.Run("batch too large", func(t *testing.T) {
		items := make([]map[string]any, maxQueriesPerRequest+1)
		for i := range items {
			items[i] = map[string]any{"sql": stubSQL}
		}
		code, _ := postJSON(t, h, "/v1/estimate", map[string]any{"queries": items})
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("status %d, want 413", code)
		}
	})
	t.Run("unknown model", func(t *testing.T) {
		code, _ := postJSON(t, h, "/v1/estimate", map[string]any{"sql": stubSQL, "model": "nope"})
		if code != http.StatusNotFound {
			t.Errorf("status %d, want 404", code)
		}
	})
	t.Run("unparseable sql", func(t *testing.T) {
		code, _ := postJSON(t, h, "/v1/estimate", map[string]any{"sql": "DROP TABLE t"})
		if code != http.StatusBadRequest {
			t.Errorf("status %d, want 400", code)
		}
	})

	// A grouped query parses, but its cardinality is a group count and no
	// served model estimates one: the client's error — never answered with
	// the row estimate of its WHERE, never cached, never handed to Feedback.
	t.Run("group by", func(t *testing.T) {
		const grouped = stubSQL + " GROUP BY b"
		for i := 0; i < 2; i++ { // the second must not be a hit on the first
			code, resp := postJSON(t, h, "/v1/estimate", map[string]any{"sql": grouped, "actual": 7})
			if msg, _ := resp["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, "group counts") {
				t.Errorf("single, attempt %d: status %d body %v, want 400 naming group counts", i, code, resp)
			}
		}
		snap := srv.Metrics().Snapshot()
		if snap["cache_misses"] != int64(0) || snap["cache_hits"] != int64(0) || fed.Load() != 0 {
			t.Errorf("a refused query reached the cache or the feedback hook: misses=%v hits=%v fed=%d",
				snap["cache_misses"], snap["cache_hits"], fed.Load())
		}
		code, resp := postJSON(t, h, "/v1/estimate", map[string]any{
			"queries": []map[string]any{{"sql": grouped}, {"sql": stubSQL}},
		})
		results, _ := resp["results"].([]any)
		if code != http.StatusOK || len(results) != 2 {
			t.Fatalf("batch: status %d body %v, want 200 with two results", code, resp)
		}
		if msg, _ := results[0].(map[string]any)["error"].(string); !strings.Contains(msg, "group counts") {
			t.Errorf("batch item 0 = %v, want a per-item error naming group counts", results[0])
		}
		if results[1].(map[string]any)["estimate"] != 1.0 {
			t.Errorf("batch item 1 = %v, want the ungrouped query answered", results[1])
		}
		snap = srv.Metrics().Snapshot()
		if snap["cache_misses"] != int64(1) || fed.Load() != 1 {
			t.Errorf("after the batch: misses=%v fed=%d, want 1 and 1 (the ungrouped item alone)", snap["cache_misses"], fed.Load())
		}
	})

	snap := srv.Metrics().Snapshot()
	if snap["responses_4xx"].(int64) < 9 {
		t.Errorf("responses_4xx = %v, want >= 9", snap["responses_4xx"])
	}
	if snap["responses_5xx"] != int64(0) {
		t.Errorf("responses_5xx = %v, want 0", snap["responses_5xx"])
	}
}

func TestEstimateFailureIs422(t *testing.T) {
	srv := newStubServer(t, errEst{}, nil)
	code, resp := postJSON(t, srv.Handler(), "/v1/estimate", map[string]any{"sql": stubSQL})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", code)
	}
	if resp["error"] == nil || resp["error"] == "" {
		t.Errorf("error = %v, want the estimation failure", resp["error"])
	}
	if got := srv.Metrics().Snapshot()["estimate_errors_total"]; got != int64(1) {
		t.Errorf("estimate_errors_total = %v, want 1", got)
	}
}

func TestModelsEndpoint(t *testing.T) {
	srv := newStubServer(t, constEst(1), nil)
	code, resp := getJSON(t, srv.Handler(), "/v1/models")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp["default"] != "stub" {
		t.Errorf("default = %v, want stub", resp["default"])
	}
	models := resp["models"].([]any)
	if len(models) != 1 {
		t.Fatalf("models = %v, want 1 entry", models)
	}
	m := models[0].(map[string]any)
	if m["name"] != "stub" || m["kind"] != "stub" || m["source"] != "test" {
		t.Errorf("model info = %v", m)
	}
}

func TestLoadEndpointValidation(t *testing.T) {
	srv := newStubServer(t, constEst(1), nil)
	h := srv.Handler()
	if code, _ := getJSON(t, h, "/v1/models/load"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", code)
	}
	if code, _ := rawPost(t, h, "/v1/models/load", []byte(`{}`)); code != http.StatusBadRequest {
		t.Errorf("missing fields: status %d, want 400", code)
	}
	code, resp := postJSON(t, h, "/v1/models/load", map[string]any{"name": "x", "path": "/no/such/file"})
	if code != http.StatusBadRequest {
		t.Errorf("bad path: status %d body %v, want 400", code, resp)
	}
	if got := srv.Metrics().Snapshot()["model_swaps_total"]; got != int64(0) {
		t.Errorf("model_swaps_total = %v after failed loads, want 0", got)
	}
}

func TestHealthz(t *testing.T) {
	srv := newStubServer(t, constEst(1), nil)
	h := srv.Handler()
	code, resp := getJSON(t, h, "/healthz")
	if code != http.StatusOK || resp["status"] != "ok" {
		t.Fatalf("healthy: status %d body %v", code, resp)
	}
	srv.Drain()
	code, resp = getJSON(t, h, "/healthz")
	if code != http.StatusServiceUnavailable || resp["status"] != "draining" {
		t.Fatalf("draining: status %d body %v", code, resp)
	}
}

// ---- admission control ----

// TestAdmissionControl verifies the bounded in-flight semaphore: with
// MaxInFlight requests blocked inside estimation, the next request is shed
// with 429 + Retry-After instead of queueing, and the blocked requests still
// complete once the estimator unblocks.
func TestAdmissionControl(t *testing.T) {
	est := &blockingEst{started: make(chan struct{}), release: make(chan struct{})}
	srv := newStubServer(t, est, func(c *Config) {
		c.MaxInFlight = 2
	})
	h := srv.Handler()

	type outcome struct {
		code int
		resp map[string]any
	}
	results := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, resp := postJSON(t, h, "/v1/estimate", map[string]any{"sql": stubSQL})
			results <- outcome{code, resp}
		}()
	}
	// Both requests are inside the estimator (holding their admission slots)
	// before the third arrives.
	<-est.started
	<-est.started

	req := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader([]byte(`{"sql":"`+stubSQL+`"}`)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want %q", ra, "1")
	}

	close(est.release)
	for i := 0; i < 2; i++ {
		o := <-results
		if o.code != http.StatusOK || o.resp["estimate"] != 42.0 {
			t.Errorf("blocked request %d: status %d body %v, want 200/42", i, o.code, o.resp)
		}
	}

	snap := srv.Metrics().Snapshot()
	if snap["shed_total"] != int64(1) {
		t.Errorf("shed_total = %v, want 1", snap["shed_total"])
	}
	if snap["requests_total"] != int64(2) {
		t.Errorf("requests_total = %v, want 2 (shed requests are not admitted)", snap["requests_total"])
	}
	if snap["in_flight"] != int64(0) {
		t.Errorf("in_flight = %v after completion, want 0", snap["in_flight"])
	}
}

// TestStalledBodyHoldsNoSlot: a client that sends its headers and one byte
// of a promised body waits on its own connection, not in an admission slot,
// so MaxInFlight such clients shed no one: a well-formed request still
// answers 200 within its deadline.
func TestStalledBodyHoldsNoSlot(t *testing.T) {
	srv := newStubServer(t, constEst(5), func(c *Config) {
		c.MaxInFlight = 2
		c.DefaultTimeout = 100 * time.Millisecond
	})
	entered := make(chan struct{}, 3) // one per request this test sends
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := fmt.Fprint(conn, "POST /v1/estimate HTTP/1.1\r\nHost: stub\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{"); err != nil {
			t.Fatal(err)
		}
		<-entered
	}

	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(`{"sql":"`+stubSQL+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK || out["estimate"] != 5.0 {
		t.Fatalf("beside two stalled bodies: status %d, %v (%v), want 200 with the model's 5", resp.StatusCode, out, err)
	}
}

// ---- hot-swap end to end ----

// TestHotSwapEndToEnd is the acceptance scenario: serve a trained model over
// a real listener, hot-swap a second trained model via POST /v1/models/load
// while a concurrent client loop hammers /v1/estimate, and require zero
// failed requests, the new model's estimates after the swap acks, and
// metrics consistent with the load.
func TestHotSwapEndToEnd(t *testing.T) {
	db, set := testEnv(t)
	train := set[:500]

	// Two deliberately different models: different feature budgets and
	// training halves make their estimates differ on most queries.
	locA := trainLocal(t, db, train[:250], 16)
	locB := trainLocal(t, db, train[250:], 8)

	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.json")
	pathB := filepath.Join(dir, "b.json")
	for _, sv := range []struct {
		loc  *estimator.Local
		path string
	}{{locA, pathA}, {locB, pathB}} {
		f, err := os.Create(sv.path)
		if err != nil {
			t.Fatal(err)
		}
		if err := sv.loc.SaveJSON(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Find a probe query the two models disagree on, and compute the exact
	// estimates the *loaded* snapshots will serve.
	var probeSQL string
	var wantA, wantB float64
	for _, l := range set[500:560] {
		a, err := locA.Estimate(l.Query)
		if err != nil {
			continue
		}
		b, err := locB.Estimate(l.Query)
		if err != nil {
			continue
		}
		if a != b {
			probeSQL, wantA, wantB = l.Query.String(), a, b
			break
		}
	}
	if probeSQL == "" {
		t.Fatal("no probe query distinguishes the two models")
	}

	reg := NewRegistry()
	f, err := os.Open(pathA)
	if err != nil {
		t.Fatal(err)
	}
	estA, kind, err := estimator.LoadEstimator(f, db)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("live", estA, ModelInfo{Kind: kind, Source: pathA}); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Registry:    reg,
		DB:          db,
		MaxInFlight: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path string, body any) (int, map[string]any, error) {
		buf, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		var v map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			return resp.StatusCode, nil, err
		}
		return resp.StatusCode, v, nil
	}

	const clients, perClient = 6, 30
	estBody := map[string]any{"sql": probeSQL}
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				code, resp, err := post("/v1/estimate", estBody)
				if err != nil {
					errs <- err
					return
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("estimate failed during swap: status %d body %v", code, resp)
					return
				}
				got := resp["estimate"].(float64)
				if got != wantA && got != wantB {
					errs <- fmt.Errorf("estimate %v matches neither model (%v / %v)", got, wantA, wantB)
					return
				}
			}
		}()
	}

	// Let the loop get going, then swap the live model in-place.
	time.Sleep(20 * time.Millisecond)
	code, resp, err := post("/v1/models/load", map[string]any{"name": "live", "path": pathB, "default": true})
	if err != nil || code != http.StatusOK {
		t.Fatalf("hot-swap load: status %d body %v err %v", code, resp, err)
	}
	if info, _ := resp["info"].(map[string]any); info["source"] != pathB || info["generation"].(float64) < 2 {
		t.Errorf("swap info = %v, want source %s and generation >= 2", resp["info"], pathB)
	}

	// Requests issued after the swap ack must be served by model B.
	code, resp, err = post("/v1/estimate", estBody)
	if err != nil || code != http.StatusOK {
		t.Fatalf("post-swap estimate: status %d err %v", code, err)
	}
	if resp["estimate"] != wantB {
		t.Errorf("post-swap estimate = %v, want model B's %v", resp["estimate"], wantB)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := srv.Metrics().Snapshot()
	wantReqs := int64(clients*perClient + 1) // the loop plus the post-swap probe
	if snap["model_swaps_total"] != int64(1) {
		t.Errorf("model_swaps_total = %v, want 1", snap["model_swaps_total"])
	}
	if snap["requests_total"] != wantReqs {
		t.Errorf("requests_total = %v, want %v", snap["requests_total"], wantReqs)
	}
	if snap["queries_total"] != snap["requests_total"] {
		t.Errorf("queries_total = %v, want %v (all requests were single-query)", snap["queries_total"], snap["requests_total"])
	}
	lat := snap["latency_micros"].(map[string]any)
	if lat["count"] != snap["queries_total"] {
		t.Errorf("latency histogram count = %v, want %v", lat["count"], snap["queries_total"])
	}
	if snap["responses_5xx"] != int64(0) {
		t.Errorf("responses_5xx = %v, want 0", snap["responses_5xx"])
	}
	if snap["shed_total"] != int64(0) || snap["drained_total"] != int64(0) {
		t.Errorf("shed/drained = %v/%v, want 0/0", snap["shed_total"], snap["drained_total"])
	}
}

// TestShedSetsUsableRetryAfter: end to end, a shed request must carry a
// parseable, nonzero header: "Retry-After: 0" invites every shed client to
// retry at once, a thundering herd aimed at a server that just declared
// itself at capacity.
func TestShedSetsUsableRetryAfter(t *testing.T) {
	est := &blockingEst{started: make(chan struct{}), release: make(chan struct{})}
	srv := newStubServer(t, est, func(cfg *Config) { cfg.MaxInFlight = 1 })
	h := srv.Handler()

	done := make(chan struct{})
	go func() {
		defer close(done)
		postJSON(t, h, "/v1/estimate", map[string]any{"sql": stubSQL})
	}()
	<-est.started // the slot is occupied
	defer func() {
		close(est.release)
		<-done
	}()

	req := httptest.NewRequest(http.MethodPost, "/v1/estimate",
		strings.NewReader(`{"sql":"`+stubSQL+`"}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", rec.Header().Get("Retry-After"))
	}
}
