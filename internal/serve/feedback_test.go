package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"qfe/internal/core"
	"qfe/internal/journal"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/testutil"
)

func TestFiniteActual(t *testing.T) {
	if !finiteActual(nil) {
		t.Error("finiteActual(nil) = false, want true (absent feedback is fine)")
	}
	for _, v := range []float64{0, -1, 1, 1e308} {
		v := v
		if !finiteActual(&v) {
			t.Errorf("finiteActual(%v) = false, want true", v)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := v
		if finiteActual(&v) {
			t.Errorf("finiteActual(%v) = true, want false", v)
		}
	}
}

// TestActualValue pins the has-actual decision table: nil and negative mean
// "no feedback", while an explicit zero is a genuine empty result — the
// exact ambiguity the pointer-typed wire field exists to remove.
func TestActualValue(t *testing.T) {
	if v, ok := actualValue(nil); ok || v != 0 {
		t.Errorf("actualValue(nil) = (%v, %v), want (0, false)", v, ok)
	}
	neg := -1.0
	if v, ok := actualValue(&neg); ok || v != 0 {
		t.Errorf("actualValue(-1) = (%v, %v), want (0, false)", v, ok)
	}
	zero := 0.0
	if v, ok := actualValue(&zero); !ok || v != 0 {
		t.Errorf("actualValue(0) = (%v, %v), want (0, true): explicit zero IS feedback", v, ok)
	}
	pos := 21.0
	if v, ok := actualValue(&pos); !ok || v != 21 {
		t.Errorf("actualValue(21) = (%v, %v), want (21, true)", v, ok)
	}
}

// TestEstimateRejectsNonFiniteActual proves the ingestion edge is closed:
// an out-of-range JSON number fails at the decoder, and a crafted non-finite
// value that somehow got past it would fail the explicit check — either
// way the request gets a 400, and nothing non-finite reaches the q-error
// histogram or the journal.
func TestEstimateRejectsNonFiniteActual(t *testing.T) {
	srv := newStubServer(t, constEst(42), nil)
	h := srv.Handler()

	code, _ := rawPost(t, h, "/v1/estimate", []byte(`{"sql": "SELECT count(*) FROM t WHERE a >= 1", "actual": 1e400}`))
	if code != http.StatusBadRequest {
		t.Errorf("single with actual=1e400: status %d, want 400", code)
	}
	code, resp := rawPost(t, h, "/v1/estimate", []byte(`{"queries": [{"sql": "q", "actual": 1e400}]}`))
	if code != http.StatusBadRequest {
		t.Errorf("batch with actual=1e400: status %d, body %v, want 400", code, resp)
	}
	if qe := srv.Metrics().Snapshot()["qerror"].(map[string]any); qe["count"] != int64(0) {
		t.Errorf("qerror histogram count = %v after rejected feedback, want 0", qe["count"])
	}
}

func TestFeedbackHookObservesServedQueries(t *testing.T) {
	var mu sync.Mutex
	var seen []FeedbackEvent
	srv := newStubServer(t, constEst(42), func(cfg *Config) {
		cfg.Feedback = func(ev FeedbackEvent) {
			mu.Lock()
			seen = append(seen, ev)
			mu.Unlock()
		}
	})
	h := srv.Handler()

	if code, _ := postJSON(t, h, "/v1/estimate", map[string]any{"sql": stubSQL, "actual": 84}); code != http.StatusOK {
		t.Fatalf("single estimate status %d", code)
	}
	if code, _ := postJSON(t, h, "/v1/estimate", map[string]any{"queries": []map[string]any{
		{"sql": stubSQL, "actual": 21},
		{"sql": stubSQL, "actual": 0}, // explicit zero: genuine empty-result feedback
		{"sql": stubSQL},              // absent: the hook still sees the query, without an actual
	}}); code != http.StatusOK {
		t.Fatalf("batch estimate status %d", code)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 4 {
		t.Fatalf("feedback hook saw %d queries, want 4", len(seen))
	}
	first := seen[0]
	if first.Estimate != 42 || first.Actual != 84 || !first.HasActual {
		t.Errorf("single feedback = %+v, want est 42 actual 84 hasActual", first)
	}
	if first.SQL != stubSQL || first.Query == nil || len(first.Query.Tables) != 1 {
		t.Errorf("single feedback carries SQL %q query %v, want the served query", first.SQL, first.Query)
	}
	if first.Model == "" {
		t.Errorf("single feedback carries no model name")
	}
	// The three batch events, in some order: actual 21, explicit zero, and
	// one without feedback. The zero-actual event must be distinguishable
	// from the no-feedback one ONLY via HasActual — both carry Actual == 0.
	type key struct {
		actual    float64
		hasActual bool
	}
	got := map[key]int{}
	for _, ev := range seen[1:] {
		got[key{ev.Actual, ev.HasActual}]++
	}
	want := map[key]int{
		{21, true}: 1,
		{0, true}:  1,
		{0, false}: 1,
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("batch feedback events = %v, want %v", got, want)
			break
		}
	}
}

// TestFeedbackHookSkipsFailedEstimates: a model that fails gets its query no
// error, only a degraded answer from the chain, and the hook sees that answer
// as it was served — estimate, actual and all. Only a text that does not
// parse or bind, never estimated, reaches no hook.
func TestFeedbackHookSkipsFailedEstimates(t *testing.T) {
	var events []FeedbackEvent
	srv := newStubServer(t, errEst{}, func(cfg *Config) {
		cfg.Feedback = func(ev FeedbackEvent) { events = append(events, ev) }
	})
	code, resp := postJSON(t, srv.Handler(), "/v1/estimate", map[string]any{"sql": stubSQL, "actual": 10})
	if code != http.StatusOK || resp["estimate"] != 1.0 || resp["degraded"] != true {
		t.Fatalf("status %d body %v, want 200 with the last resort's 1, degraded", code, resp)
	}
	if len(events) != 1 || events[0].Estimate != 1 || events[0].Actual != 10 || !events[0].HasActual || events[0].SQL != stubSQL {
		t.Errorf("feedback events = %+v, want the one degraded answer as served", events)
	}
	if code, _ := postJSON(t, srv.Handler(), "/v1/estimate", map[string]any{"sql": "SELECT count(*) FROM t WHERE zz = 1", "actual": 10}); code != http.StatusBadRequest {
		t.Errorf("an unbindable single: status %d, want 400", code)
	}
	if len(events) != 1 {
		t.Errorf("the hook ran %d times, want once: an unbindable text is never estimated", len(events))
	}
}

// TestBatchTopLevelActualIs400: a batch's feedback goes with each of its
// queries. A top-level "actual" on a batch names no query; it was once
// answered 200 and dropped without a word, so no feedback was recorded. It is
// the client's 400 now, saying where "actual" goes, and nothing is estimated
// or handed to the hook.
func TestBatchTopLevelActualIs400(t *testing.T) {
	var calls int
	srv := newStubServer(t, constEst(42), func(cfg *Config) {
		cfg.Feedback = func(FeedbackEvent) { calls++ }
	})
	code, resp := postJSON(t, srv.Handler(), "/v1/estimate", map[string]any{
		"actual":  84,
		"queries": []map[string]any{{"sql": stubSQL}},
	})
	if msg, _ := resp["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, `"actual" in each query`) {
		t.Errorf("status %d body %v, want 400 saying \"actual\" goes in each query", code, resp)
	}
	if snap := srv.Metrics().Snapshot(); calls != 0 || snap["queries_total"] != int64(0) {
		t.Errorf("the refused batch was answered: %d feedback events, queries_total %v", calls, snap["queries_total"])
	}
	// A per-query actual, and a top-level null, are fine.
	for _, body := range []string{
		`{"queries":[{"sql":"` + stubSQL + `","actual":84}]}`,
		`{"actual":null,"queries":[{"sql":"` + stubSQL + `"}]}`,
	} {
		if code, resp := rawPost(t, srv.Handler(), "/v1/estimate", []byte(body)); code != http.StatusOK {
			t.Errorf("%s: status %d body %v, want 200", body, code, resp)
		}
	}
	if calls != 2 {
		t.Errorf("feedback events = %d, want 2", calls)
	}
}

// journalServer is a stub server whose lifecycle holds a journal on a fake
// clock (nothing flushes unless the test syncs), with cardestd's feedback
// hook appending every served estimate to it.
func journalServer(t *testing.T) (*Server, *journal.Journal) {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	jnl, err := journal.Open(t.TempDir(), journalTestOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })
	reg := newChainRegistry()
	if _, err := reg.Register("stub", constEst(1), ModelInfo{Kind: "stub", Source: "test"}); err != nil {
		t.Fatal(err)
	}
	lc, err := NewLifecycle(LifecycleConfig{Registry: reg, Journal: jnl})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Registry: reg, DB: stubDB(), Lifecycle: lc, Feedback: journalFeedback(jnl)})
	if err != nil {
		t.Fatal(err)
	}
	return srv, jnl
}

// journalKeys are the /metrics keys of the journal's counters; cmd/bench
// reads four of them.
var journalKeys = []string{
	"journal_appended", "journal_shed", "journal_persisted",
	"journal_dropped", "journal_staged", "journal_flushes", "journal_flush_micros",
	"journal_flush_errors", "journal_rotations", "journal_gc_removed",
	"journal_segments", "journal_active_bytes",
}

// TestExtraMetricsMergedIntoSnapshot: the lifecycle's journal is rendered in
// /metrics beside the server's own counters, as the 12 journal_* keys; a
// server whose lifecycle has no journal renders none of them.
func TestExtraMetricsMergedIntoSnapshot(t *testing.T) {
	srv, jnl := journalServer(t)
	h := srv.Handler()
	for i := 0; i < 3; i++ {
		if code, body := postJSON(t, h, "/v1/estimate", map[string]any{"sql": stubSQL, "actual": 1}); code != http.StatusOK {
			t.Fatalf("POST: %d %v", code, body)
		}
	}
	if err := jnl.Sync(); err != nil {
		t.Fatal(err)
	}
	code, m := getJSON(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, k := range journalKeys {
		if _, ok := m[k]; !ok {
			t.Errorf("/metrics has no %s", k)
		}
	}
	if m["journal_appended"] != 3.0 || m["journal_persisted"] != 3.0 || m["journal_flushes"] != 1.0 || m["requests_total"] != 3.0 {
		t.Errorf("journal_appended/persisted/flushes %v/%v/%v, requests_total %v; want 3/3/1, 3",
			m["journal_appended"], m["journal_persisted"], m["journal_flushes"], m["requests_total"])
	}

	_, bare := getJSON(t, newStubServer(t, constEst(1), nil).Handler(), "/metrics")
	for k := range bare {
		if strings.HasPrefix(k, "journal_") {
			t.Errorf("a server without a journal renders %s", k)
		}
	}
}

// TestStatusPages: GET /v1/journal reports the lifecycle's journal as
// {"dir","stats","segments"}, any other method is a 405, and a server whose
// lifecycle has no journal has no such page.
func TestStatusPages(t *testing.T) {
	srv, jnl := journalServer(t)
	h := srv.Handler()
	if code, body := postJSON(t, h, "/v1/estimate", map[string]any{"sql": stubSQL}); code != http.StatusOK {
		t.Fatalf("POST: %d %v", code, body)
	}
	if err := jnl.Sync(); err != nil {
		t.Fatal(err)
	}
	code, v := getJSON(t, h, "/v1/journal")
	if code != http.StatusOK || v["dir"] != jnl.Dir() {
		t.Fatalf("GET /v1/journal = (%d, %v), want 200 naming %s", code, v, jnl.Dir())
	}
	stats, _ := v["stats"].(map[string]any)
	segments, _ := v["segments"].([]any)
	if stats["appended"] != 1.0 || len(segments) != 1 {
		t.Fatalf("GET /v1/journal stats %v, segments %v; want 1 appended, 1 segment", v["stats"], v["segments"])
	}
	if seg, _ := segments[0].(map[string]any); seg["records"] != 1.0 || seg["bytes"].(float64) <= 0 {
		t.Errorf("segment %v, want 1 record in a positive number of bytes", seg)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/journal", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/journal status %d, want 405", rec.Code)
	}

	rec = httptest.NewRecorder()
	newStubServer(t, constEst(1), nil).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/journal", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /v1/journal without a journal: status %d, want 404", rec.Code)
	}
}

// ---- the hook's query on a cache hit ----

// ordersDB is one table with a string column, so Bind has something to
// rewrite.
func ordersDB() *table.DB {
	tbl := table.New("orders")
	tbl.MustAddColumn(table.NewStringColumn("status", []string{"F", "P", "F", "O", "P"}))
	tbl.MustAddColumn(table.NewColumn("n", []int64{1, 2, 3, 4, 5}))
	db := table.NewDB()
	db.MustAdd(tbl)
	return db
}

// TestFeedbackHitHandsHookTheBoundQuery: with a hook installed a hit hands
// over the query its entry kept from the miss — the same pointer, so nothing
// was parsed — string literals already bound; a new generation parses
// afresh; and a server without a hook keeps no query at all.
func TestFeedbackHitHandsHookTheBoundQuery(t *testing.T) {
	const sql = "SELECT count(*) FROM orders WHERE status = 'P' AND n >= 2"
	var seen []FeedbackEvent
	var reg *Registry
	srv := cachedServer(t, constEst(7), func(cfg *Config) {
		cfg.DB = ordersDB()
		cfg.Feedback = func(ev FeedbackEvent) { seen = append(seen, ev) }
		reg = cfg.Registry
	})
	h := srv.Handler()
	// post sends body and returns the query of the last event it produced.
	post := func(body map[string]any) *sqlparse.Query {
		t.Helper()
		if code, resp := postJSON(t, h, "/v1/estimate", body); code != http.StatusOK {
			t.Fatalf("POST: %d %v", code, resp)
		}
		q := seen[len(seen)-1].Query
		if q == nil {
			t.Fatalf("event %d: the hook was handed a nil query", len(seen))
		}
		return q
	}
	single := map[string]any{"sql": sql, "actual": 2}

	miss := post(single)
	want := core.Fingerprint(miss)
	eachNode(miss.Where, func(e sqlparse.Expr) {
		if p, ok := e.(*sqlparse.Pred); ok && p.Str != nil {
			t.Errorf("predicate %v reached the hook with its string literal unbound", p)
		}
	})
	if hit := post(single); hit != miss {
		t.Error("a hit handed the hook a query other than the one its miss bound: the text was parsed again")
	} else if got := core.Fingerprint(hit); got != want {
		t.Errorf("fingerprint on the hit %s, on the miss %s", got, want)
	}
	before := len(seen)
	post(map[string]any{"queries": []map[string]any{{"sql": sql}, {"sql": sql, "actual": 0}}})
	for _, ev := range seen[before:] {
		if ev.Query != miss {
			t.Error("a batch hit handed the hook a query other than the one its miss bound")
		}
	}
	if n := len(seen) - before; n != 2 {
		t.Errorf("the batch produced %d events, want 2", n)
	}

	if _, err := reg.Register("stub", constEst(8), ModelInfo{Kind: "stub"}); err != nil {
		t.Fatal(err)
	}
	swapped := post(single)
	if swapped == miss {
		t.Error("the new generation's first request was handed the displaced generation's query")
	}
	if seen[len(seen)-1].Estimate != 8 {
		t.Errorf("estimate %v after the swap, want the new model's 8", seen[len(seen)-1].Estimate)
	}
	if hit := post(single); hit != swapped {
		t.Error("the new generation's hit did not hand over its own miss's query")
	}

	// No hook, nothing retained: the entry is the estimate alone.
	bare := cachedServer(t, constEst(7), func(cfg *Config) { cfg.DB = ordersDB() })
	for i := 0; i < 2; i++ {
		for _, body := range []map[string]any{single, {"queries": []map[string]any{{"sql": sql + " AND n <= 4"}}}} {
			if code, resp := postJSON(t, bare.Handler(), "/v1/estimate", body); code != http.StatusOK {
				t.Fatalf("POST: %d %v", code, resp)
			}
		}
	}
	if n := bare.cache.len(); n != 2 {
		t.Fatalf("the hookless server cached %d entries, want 2", n)
	}
	for _, s := range bare.cache.shards {
		for _, e := range s.slots {
			if e.q != nil {
				t.Error("a server without a Feedback hook retained a parsed query")
			}
		}
	}
}

// TestCachedQuerySharedReadOnly: many requests hit one key at once and every
// hook fingerprints the one shared query; the race detector is the referee.
func TestCachedQuerySharedReadOnly(t *testing.T) {
	db, singles, _ := benchBodies(t, 1)
	var want atomic.Pointer[string]
	var mismatches atomic.Int64
	srv := cachedServer(t, constEst(7), func(cfg *Config) {
		cfg.DB = db
		cfg.MaxInFlight = 64
		cfg.Feedback = func(ev FeedbackEvent) {
			fp := core.Fingerprint(ev.Query)
			if !want.CompareAndSwap(nil, &fp) && *want.Load() != fp {
				mismatches.Add(1)
			}
		}
	})
	h := srv.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if code, _ := rawPost(t, h, "/v1/estimate", singles[0]); code != http.StatusOK {
					t.Errorf("status %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := mismatches.Load(); n != 0 {
		t.Errorf("%d hooks fingerprinted the shared query differently", n)
	}
	if hits := srv.Metrics().cacheHits.Load(); hits < 32*50-32 {
		t.Errorf("cache_hits = %d of %d requests: the key was not shared", hits, 32*50)
	}
}

// TestCachedQueryBytesPerEntry reports what keeping the query costs a cache
// entry on the benchmark's own texts (benchBodies draws them as cmd/bench
// does): live heap over 512 inserted entries, with and without a hook.
func TestCachedQueryBytesPerEntry(t *testing.T) {
	const n = 512
	db, singles, _ := benchBodies(t, n)
	var textBytes int
	for _, b := range singles {
		var req estimateRequest
		if err := json.Unmarshal(b, &req); err != nil {
			t.Fatal(err)
		}
		textBytes += len(req.SQL)
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle empties the pools' victim caches
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	heapPerEntry := func(hook func(FeedbackEvent)) float64 {
		srv := cachedServer(t, constEst(7), func(cfg *Config) {
			cfg.DB = db
			cfg.Cache.Entries = 16 * n // no shard evicts
			cfg.Feedback = hook
		})
		h := srv.Handler()
		before := liveHeap()
		for _, body := range singles {
			if code, resp := rawPost(t, h, "/v1/estimate", body); code != http.StatusOK {
				t.Fatalf("POST: %d %v", code, resp)
			}
		}
		after := liveHeap()
		if got := srv.cache.len(); got != n {
			t.Fatalf("cached %d entries, want %d", got, n)
		}
		return (float64(after) - float64(before)) / n
	}
	bare := heapPerEntry(nil)
	kept := heapPerEntry(func(FeedbackEvent) {})
	t.Logf("%d entries, mean text %d bytes: %.0f live heap bytes/entry without a hook, %.0f with (the query and the text its names point into: +%.0f)",
		n, textBytes/n, bare, kept, kept-bare)
	if kept-bare > 8<<10 {
		t.Errorf("keeping the query costs %.0f bytes per entry, want <= 8 KiB", kept-bare)
	}
}
