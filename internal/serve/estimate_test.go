package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"qfe/internal/cli"
	"qfe/internal/estimator"
	"qfe/internal/resilience"
	"qfe/internal/sqlparse"
	"qfe/internal/testutil"
)

func parseQ(t *testing.T, sql string) *sqlparse.Query {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// pickyEst maps specific queries to specific values, so order preservation
// is observable.
type pickyEst map[*sqlparse.Query]float64

func (p pickyEst) Name() string { return "picky" }
func (p pickyEst) Estimate(q *sqlparse.Query) (float64, error) {
	v, ok := p[q]
	if !ok {
		return 0, errors.New("unknown query")
	}
	return v, nil
}

// TestDoBatchKeepsOrder: a client batch's misses fan out over the worker
// pool but come back in input order, and the batch counts once in /metrics
// with its misses; a single counts as no batch.
func TestDoBatchKeepsOrder(t *testing.T) {
	est := pickyEst{}
	srv := newStubServer(t, est, nil)
	chain := stubChain(est).(*resilience.Resilient)
	qs := make([]*sqlparse.Query, 8)
	for i := range qs {
		qs[i] = parseQ(t, stubSQL)
		est[qs[i]] = float64(i*10 + 1)
	}
	out := make([]EstResult, len(qs))
	srv.doBatch(context.Background(), time.Time{}, chain, qs, out)
	for i, r := range out {
		if want := (EstResult{Estimate: float64(i*10 + 1), Stage: "picky"}); r != want {
			t.Errorf("result %d = %+v, want %+v", i, r, want)
		}
	}

	srv = newStubServer(t, constEst(7), nil)
	items := make([]map[string]any, 8)
	for i := range items {
		items[i] = map[string]any{"sql": stubSQL}
	}
	for _, body := range []map[string]any{{"queries": items}, {"sql": stubSQL}} {
		if code, resp := postJSON(t, srv.Handler(), "/v1/estimate", body); code != http.StatusOK {
			t.Fatalf("status %d body %v", code, resp)
		}
	}
	snap := srv.Metrics().Snapshot()
	if snap["batches_total"] != int64(1) || snap["batched_queries_total"] != int64(8) {
		t.Errorf("recorded %v batches carrying %v queries, want one batch of 8 (a single is not one)",
			snap["batches_total"], snap["batched_queries_total"])
	}
}

// TestEstimateOneContextCancelled: a cancelled context reaches no model.
// The chain answers from its last resort, degraded — a single's one query as
// much as a fanned-out batch's — not with a hang and not with an error.
func TestEstimateOneContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	est := &countingEst{value: 5}
	chain := resilience.NewResilient(resilience.Config{LastResort: resilience.Constant{Value: 77}},
		resilience.Stage{Name: "learned", Est: est})
	srv := newStubServer(t, chain, nil)
	qs := []*sqlparse.Query{parseQ(t, stubSQL), parseQ(t, stubSQL), parseQ(t, stubSQL)}
	for _, n := range []int{1, len(qs)} {
		out := make([]EstResult, n)
		srv.doBatch(ctx, time.Time{}, chain, qs[:n], out)
		for i, r := range out {
			if want := (EstResult{Estimate: 77, Stage: "constant", Degraded: true}); r != want {
				t.Errorf("%d queries: result %d = %+v under a cancelled context, want the last resort's %+v", n, i, r, want)
			}
		}
	}
	if n := est.calls.Load(); n != 0 {
		t.Errorf("the estimator ran %d times under a cancelled context", n)
	}
}

// TestDoBatchSteadyStateAllocs pins the serve layer's own cost of a client
// batch on the per-query path: nothing per query. AllocsPerRun runs at one P,
// where doBatch estimates inline (a governed daemon's batch at one P, and
// every single's miss); TestDoBatchFanOutAllocs counts the fan-out.
func TestDoBatchSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	srv := newStubServer(t, constEst(7), nil)
	chain := stubChain(constEst(7)).(*resilience.Resilient)
	qs := make([]*sqlparse.Query, 64)
	for i := range qs {
		qs[i] = parseQ(t, stubSQL)
	}
	ctx := context.Background()
	out := make([]EstResult, len(qs))
	allocs := testing.AllocsPerRun(100, func() {
		srv.doBatch(ctx, time.Time{}, chain, qs, out)
	})
	t.Logf("doBatch(64) allocs/op = %v", allocs)
	if allocs > 8 {
		t.Errorf("doBatch allocs/op = %v, want <= 8 (64 queries: anything more is per-query overhead)", allocs)
	}
}

// TestDoBatchFanOutAllocs counts what TestDoBatchSteadyStateAllocs cannot:
// testing.AllocsPerRun sets GOMAXPROCS to 1, so the batch it measures never
// fans out. At 2 Ps doBatch hands its queries to the worker pool, and the pool
// costs a fixed number of allocations per batch — the closure over the batch,
// the pool's shared counter and wait group, the workers' goroutines — and
// nothing per query: at most 8 a batch, at 8 queries as at 256. The count is
// runtime.MemStats.Mallocs over many batches, so an allocation elsewhere in
// the process during the loop is spread thin.
func TestDoBatchFanOutAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	srv := newStubServer(t, constEst(7), nil)
	chain := stubChain(constEst(7)).(*resilience.Resilient)
	ctx := context.Background()
	for _, n := range []int{8, 64, 256} {
		qs := make([]*sqlparse.Query, n)
		for i := range qs {
			qs[i] = parseQ(t, stubSQL)
		}
		out := make([]EstResult, n)
		srv.doBatch(ctx, time.Time{}, chain, qs, out)
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			srv.doBatch(ctx, time.Time{}, chain, qs, out)
		}
		runtime.ReadMemStats(&after)
		perBatch := float64(after.Mallocs-before.Mallocs) / runs
		t.Logf("doBatch(%d) at 2 Ps: %.2f allocs/batch", n, perBatch)
		if perBatch > 8 {
			t.Errorf("doBatch(%d) at 2 Ps allocates %.2f times a batch, want <= 8: a fixed cost per batch, nothing per query", n, perBatch)
		}
	}
}

// TestSinglesDoNotWaitOnATimer: an uncached single is answered on its
// request goroutine. Behind cardestd's coalescing batcher each one sat out
// the 2 ms batch delay, so 200 sequential singles took at least 400 ms;
// inline they take a few milliseconds. The 200 ms line sits an order of
// magnitude from either — it is not a tuned threshold.
func TestSinglesDoNotWaitOnATimer(t *testing.T) {
	srv := newStubServer(t, constEst(3), nil) // the default Config: no cache
	h := srv.Handler()
	body := []byte(`{"sql":"` + stubSQL + `"}`)
	start := time.Now()
	for i := 0; i < 200; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	if elapsed := time.Since(start); elapsed >= 200*time.Millisecond {
		t.Errorf("200 sequential uncached singles took %v, want well under 200ms: something on the single-query path waits", elapsed)
	}
	if got := srv.Metrics().Snapshot()["batches_total"]; got != int64(0) {
		t.Errorf("batches_total = %v after singles only, want 0 (it counts client batches)", got)
	}
}

// TestOnePathSameAnswer: serve has one way to estimate a query, so the same
// query must get the same estimate, stage and degraded bit as a single and
// inside a client batch, on a cache miss and a cache hit, with the cache on
// and off — behind a one-stage chain and behind the daemon's (cli.Chain).
func TestOnePathSameAnswer(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db, set := testEnv(t)
	loc := trainLocal(t, db, set[:300], 8)
	probe := set[300].Query
	want, err := loc.Estimate(probe)
	if err != nil {
		t.Fatal(err)
	}
	for _, wrap := range []struct {
		name string
		wrap func(estimator.Estimator) estimator.Estimator
	}{
		{"one stage", func(est estimator.Estimator) estimator.Estimator {
			return resilience.NewResilient(resilience.Config{Timeout: time.Second}, resilience.Stage{Name: "learned", Est: est})
		}},
		{"daemon's", func(est estimator.Estimator) estimator.Estimator { return cli.Chain(db, est) }},
	} {
		for _, cache := range []struct {
			name    string
			entries int
		}{{"on", 64}, {"off", 0}} {
			name := wrap.name + ", cache " + cache.name
			reg := NewRegistry()
			reg.Wrap = wrap.wrap
			if _, err := reg.Register("m", loc, ModelInfo{Kind: estimator.KindLocal}); err != nil {
				t.Fatal(err)
			}
			srv, err := New(Config{
				Registry: reg,
				DB:       db,
				Cache:    CacheConfig{Entries: cache.entries},
			})
			if err != nil {
				t.Fatal(err)
			}
			h := srv.Handler()
			single := map[string]any{"sql": probe.String()}
			batch := map[string]any{"queries": []map[string]any{{"sql": probe.String()}}}
			// single (miss), batch (hit when cached), single (hit).
			for i, body := range []map[string]any{single, batch, single} {
				code, resp := postJSON(t, h, "/v1/estimate", body)
				if code != http.StatusOK {
					t.Fatalf("%s: request %d: status %d body %v", name, i, code, resp)
				}
				if rs, ok := resp["results"].([]any); ok {
					resp = rs[0].(map[string]any)
				}
				if resp["estimate"] != want || resp["stage"] != "learned" || resp["degraded"] != nil {
					t.Errorf("%s: request %d answered estimate %v stage %v degraded %v, want %v / learned / not degraded",
						name, i, resp["estimate"], resp["stage"], resp["degraded"], want)
				}
			}
			wantHits := int64(0)
			if cache.entries > 0 {
				wantHits = 2
			}
			if got := srv.Metrics().Snapshot()["cache_hits"]; got != wantHits {
				t.Errorf("%s: cache_hits = %v, want %d", name, got, wantHits)
			}
		}
	}
}

// TestExpiredDeadline pins what a query whose deadline is already spent gets
// back: the chain's last resort (200, degraded) — for a single exactly as for
// a client-batch item; the coalescing server instead failed a single that
// timed out in its queue. The model never ran, and the degraded answer is not
// cached: the same text sent in time is the model's. Behind the least chain a
// model can be registered with (one stage, no last resort configured) that
// answer is the constant 1.
func TestExpiredDeadline(t *testing.T) {
	post := func(h http.Handler, body string) (int, map[string]any) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader([]byte(body))).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var resp map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("response %q is not JSON: %v", rec.Body, err)
		}
		return rec.Code, resp
	}
	singleBody := `{"sql":"` + stubSQL + `"}`
	batchBody := `{"queries":[{"sql":"` + stubSQL + `"}]}`
	firstItem := func(resp map[string]any) map[string]any {
		return resp["results"].([]any)[0].(map[string]any)
	}

	for _, c := range []struct {
		name       string
		lastResort estimator.Estimator
		want       float64
	}{{"last resort 77", resilience.Constant{Value: 77}, 77}, {"no last resort", nil, 1}} {
		learned := &countingEst{value: 5}
		chain := resilience.NewResilient(
			resilience.Config{LastResort: c.lastResort},
			resilience.Stage{Name: "learned", Est: learned})
		h := cachedServer(t, chain, nil).Handler()
		code, single := post(h, singleBody)
		bcode, batch := post(h, batchBody)
		if code != http.StatusOK || bcode != http.StatusOK {
			t.Fatalf("%s: status single %d / batch %d, want 200 / 200: the chain always answers", c.name, code, bcode)
		}
		for name, r := range map[string]map[string]any{"single": single, "batch item": firstItem(batch)} {
			if r["estimate"] != c.want || r["degraded"] != true || r["stage"] != "constant" || r["error"] != nil {
				t.Errorf("%s: %s = %v, want the last resort's %v, degraded", c.name, name, r, c.want)
			}
		}
		if n := learned.calls.Load(); n != 0 {
			t.Errorf("%s: the learned stage ran %d times past the deadline", c.name, n)
		}
		if code, r := postJSON(t, h, "/v1/estimate", map[string]any{"sql": stubSQL}); code != http.StatusOK ||
			r["estimate"] != 5.0 || r["stage"] != "learned" || r["degraded"] != nil {
			t.Errorf("%s: the same text in time: status %d %v, want learned's 5: a degraded answer must not be cached", c.name, code, r)
		}
	}
}

// TestAbandonedStageDoesNotOutliveRequest: behind the chain a stage that
// overruns the request's deadline runs out on the request's own goroutine —
// nothing is abandoned to run on behind the response — and the chain, its
// deadline spent when the stage fails, tries no further stage: the request
// answers degraded, from the last resort.
func TestAbandonedStageDoesNotOutliveRequest(t *testing.T) {
	next := &countingEst{value: 9}
	chain := resilience.NewResilient(resilience.Config{},
		resilience.Stage{Name: "learned", Est: sleepyErrEst(40 * time.Millisecond)},
		resilience.Stage{Name: "independence", Est: next})
	srv := newStubServer(t, chain, nil)
	start := time.Now()
	code, resp := postJSON(t, srv.Handler(), "/v1/estimate", map[string]any{"sql": stubSQL, "timeoutMs": 10})
	if code != http.StatusOK || resp["degraded"] != true || resp["stage"] != "constant" {
		t.Fatalf("status %d body %v, want 200 degraded, from the last resort", code, resp)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("request took %v: the overrunning stage must have run out on the request's goroutine", elapsed)
	}
	if n := next.calls.Load(); n != 0 {
		t.Errorf("the next stage ran %d times past the deadline", n)
	}
}

// sleepyErrEst sleeps its duration and then fails: a stage that overruns the
// request's deadline without knowing of it.
type sleepyErrEst time.Duration

func (sleepyErrEst) Name() string { return "sleepy" }
func (d sleepyErrEst) Estimate(*sqlparse.Query) (float64, error) {
	time.Sleep(time.Duration(d))
	return 0, errors.New("late and wrong")
}

// TestPanickingModelStillAnswers200: a learned model that panics on one query
// shape costs those queries their model, never their answer. Each is a 200,
// degraded, from the next stage; the healthy query sent after six of them is
// the model's, not degraded, and cached.
func TestPanickingModelStillAnswers200(t *testing.T) {
	db, set := testEnv(t)
	learned := trainLocalQFT(t, db, "complex", set[:300], 8)
	reg := NewRegistry()
	reg.Wrap = func(e estimator.Estimator) estimator.Estimator {
		return resilience.NewResilient(resilience.Config{LastResort: resilience.RowCount{DB: db}},
			resilience.Stage{Name: "learned", Est: panicsOnA2{e}},
			resilience.Stage{Name: "independence", Est: &estimator.Independence{DB: db}})
	}
	if _, err := reg.Register("boot", learned, ModelInfo{Kind: estimator.KindLocal, Source: "test"}); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Registry: reg, DB: db, Cache: CacheConfig{Entries: 64}})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	for i := range 6 {
		sql := fmt.Sprintf("SELECT count(*) FROM forest WHERE A2 <= %d", 100+10*i)
		code, resp := postJSON(t, h, "/v1/estimate", map[string]any{"sql": sql})
		if code != http.StatusOK || resp["degraded"] != true || resp["stage"] != "independence" {
			t.Fatalf("%s: status %d body %v, want 200 degraded, from independence", sql, code, resp)
		}
	}
	const healthy = "SELECT count(*) FROM forest WHERE A1 >= 2500"
	for round := range 2 {
		code, resp := postJSON(t, h, "/v1/estimate", map[string]any{"sql": healthy})
		if code != http.StatusOK || resp["degraded"] != nil || resp["stage"] != "learned" {
			t.Fatalf("round %d, %s: status %d body %v, want 200 from learned, not degraded", round, healthy, code, resp)
		}
	}
	if hits := srv.Metrics().cacheHits.Load(); hits != 1 {
		t.Errorf("cache_hits = %d after the healthy query twice, want 1", hits)
	}
}

// panicsOnA2 panics on any query with a predicate on A2 and asks the model
// otherwise.
type panicsOnA2 struct{ estimator.Estimator }

func (p panicsOnA2) Estimate(q *sqlparse.Query) (float64, error) {
	for _, pr := range sqlparse.CollectPreds(q.Where) {
		if pr.Attr == "A2" {
			panic("model exploded on A2")
		}
	}
	return p.Estimator.Estimate(q)
}
