package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

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

// TestDoBatchKeepsOrder: client batches fan out over the worker pool but
// must return results in input order, and count as one batch in /metrics.
func TestDoBatchKeepsOrder(t *testing.T) {
	est := pickyEst{}
	srv := newStubServer(t, est, nil)
	qs := make([]*sqlparse.Query, 8)
	for i := range qs {
		qs[i] = parseQ(t, stubSQL)
		est[qs[i]] = float64(i * 10)
	}
	out := make([]EstResult, len(qs))
	srv.doBatch(context.Background(), time.Time{}, est, qs, out)
	for i, r := range out {
		if r.Err != nil || r.Estimate != float64(i*10) {
			t.Errorf("result %d = %+v, want estimate %d", i, r, i*10)
		}
	}
	srv.doBatch(context.Background(), time.Time{}, est, nil, nil)
	snap := srv.Metrics().Snapshot()
	if snap["batches_total"] != int64(1) || snap["batched_queries_total"] != int64(8) {
		t.Errorf("recorded %v batches carrying %v queries, want one batch of 8 (an empty batch is not one)",
			snap["batches_total"], snap["batched_queries_total"])
	}
}

// TestEstimateOneContextCancelled: a cancelled context reaches no estimator.
// A bare estimator has nothing to degrade to, so it is an error result, not a
// hang and not an estimate; behind the chain the last resort answers,
// degraded.
func TestEstimateOneContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	est := &countingEst{value: 5}
	if r := estimateOne(ctx, time.Time{}, est, parseQ(t, stubSQL)); !errors.Is(r.Err, context.Canceled) {
		t.Errorf("bare estimator: cancelled context produced %+v, want context.Canceled", r)
	}
	chain := resilience.NewResilient(resilience.Config{LastResort: resilience.Constant{Value: 77}},
		resilience.Stage{Name: "learned", Est: est})
	if r := estimateOne(ctx, time.Time{}, chain, parseQ(t, stubSQL)); r.Err != nil || r.Estimate != 77 || r.Stage != "constant" || !r.Degraded {
		t.Errorf("chain: cancelled context produced %+v, want the last resort's 77, degraded", r)
	}
	if n := est.calls.Load(); n != 0 {
		t.Errorf("the estimator ran %d times under a cancelled context", n)
	}
}

// TestDoBatchSteadyStateAllocs pins the serve layer's own cost of a client
// batch on the per-query path: the worker pool's fixed overhead, nothing per
// query. AllocsPerRun runs at one P, where the pool is the calling goroutine
// (a governed daemon's batch at one P).
func TestDoBatchSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	srv := newStubServer(t, constEst(7), nil)
	qs := make([]*sqlparse.Query, 64)
	for i := range qs {
		qs[i] = parseQ(t, stubSQL)
	}
	ctx := context.Background()
	out := make([]EstResult, len(qs))
	allocs := testing.AllocsPerRun(100, func() {
		srv.doBatch(ctx, time.Time{}, constEst(7), qs, out)
	})
	t.Logf("doBatch(64) allocs/op = %v", allocs)
	if allocs > 8 {
		t.Errorf("doBatch allocs/op = %v, want <= 8 (64 queries: anything more is per-query overhead)", allocs)
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
// and off — through the resilience chain and through a bare model.
func TestOnePathSameAnswer(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db, set := testEnv(t)
	loc := trainLocal(t, db, set[:300], 8)
	probe := set[300].Query
	want, err := loc.Estimate(probe)
	if err != nil {
		t.Fatal(err)
	}
	chain := func(est estimator.Estimator) estimator.Estimator {
		return resilience.NewResilient(resilience.Config{Timeout: time.Second}, resilience.Stage{Name: "learned", Est: est})
	}
	for _, wrap := range []struct {
		name  string
		wrap  func(estimator.Estimator) estimator.Estimator
		stage any // JSON: omitted when empty
	}{{"resilient", chain, "learned"}, {"bare", nil, nil}} {
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
				if resp["estimate"] != want || resp["stage"] != wrap.stage || resp["degraded"] != nil {
					t.Errorf("%s: request %d answered estimate %v stage %v degraded %v, want %v / %v / not degraded",
						name, i, resp["estimate"], resp["stage"], resp["degraded"], want, wrap.stage)
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
// back. Behind the resilience chain the answer is the chain's last resort
// (200, degraded) — for a single exactly as for a client-batch item; the
// coalescing server instead failed a single that timed out in its queue. The
// model never ran, and the degraded answer is not cached: the same text sent
// in time is the model's. A bare estimator has nothing to degrade to: the
// expired context is an error result (422 for a single, a per-item error in
// a batch).
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

	{
		learned := &countingEst{value: 5}
		chain := resilience.NewResilient(
			resilience.Config{LastResort: resilience.Constant{Value: 77}},
			resilience.Stage{Name: "learned", Est: learned})
		h := cachedServer(t, chain, nil).Handler()
		code, single := post(h, singleBody)
		bcode, batch := post(h, batchBody)
		if code != http.StatusOK || bcode != http.StatusOK {
			t.Fatalf("resilient: status single %d / batch %d, want 200 / 200: the chain always answers", code, bcode)
		}
		for name, r := range map[string]map[string]any{"single": single, "batch item": firstItem(batch)} {
			if r["estimate"] != 77.0 || r["degraded"] != true || r["stage"] != "constant" || r["error"] != nil {
				t.Errorf("resilient %s = %v, want the last resort's 77, degraded", name, r)
			}
		}
		if n := learned.calls.Load(); n != 0 {
			t.Errorf("the learned stage ran %d times past the deadline", n)
		}
		if code, r := postJSON(t, h, "/v1/estimate", map[string]any{"sql": stubSQL}); code != http.StatusOK ||
			r["estimate"] != 5.0 || r["stage"] != "learned" || r["degraded"] != nil {
			t.Errorf("the same text in time: status %d %v, want learned's 5: a degraded answer must not be cached", code, r)
		}
	}
	{
		h := newStubServer(t, constEst(5), nil).Handler()
		code, single := post(h, singleBody)
		if code != http.StatusUnprocessableEntity {
			t.Errorf("bare single: status %d, want 422", code)
		}
		bcode, batch := post(h, batchBody)
		if bcode != http.StatusOK {
			t.Errorf("bare batch: status %d, want 200 with a per-item error", bcode)
		}
		for name, r := range map[string]map[string]any{"single": single, "batch item": firstItem(batch)} {
			if r["error"] != context.DeadlineExceeded.Error() || r["estimate"] != nil {
				t.Errorf("bare %s = %v, want error %q and no estimate", name, r, context.DeadlineExceeded)
			}
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
