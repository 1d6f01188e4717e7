package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram(10, 100)
	for _, v := range []float64{5, 10, 11, 100, 1000} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped

	snap := h.snapshot()
	buckets := snap["buckets"].([]bucket)
	if len(buckets) != 3 {
		t.Fatalf("got %d buckets, want 3 (two bounds + inf)", len(buckets))
	}
	// Bounds are inclusive upper bounds: 5 and 10 land in le=10; 11 and 100
	// in le=100; 1000 overflows.
	wantCounts := []int64{2, 2, 1}
	for i, b := range buckets {
		if b.N != wantCounts[i] {
			t.Errorf("bucket %d (le=%v): n=%d, want %d", i, b.LE, b.N, wantCounts[i])
		}
	}
	if buckets[2].LE != "inf" {
		t.Errorf("overflow bucket le = %v, want \"inf\"", buckets[2].LE)
	}
	if snap["count"] != int64(5) {
		t.Errorf("count = %v, want 5 (NaN dropped)", snap["count"])
	}
	if snap["sum"] != float64(5+10+11+100+1000) {
		t.Errorf("sum = %v, want 1126", snap["sum"])
	}
}

// TestHistogramRejectsNonFinite: ±Inf must be dropped like NaN — a single
// infinite observation would otherwise poison the sum forever (regression:
// Observe only filtered NaN).
func TestHistogramRejectsNonFinite(t *testing.T) {
	h := newHistogram(10, 100)
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	h.Observe(math.NaN())
	h.Observe(1)

	snap := h.snapshot()
	if snap["count"] != int64(1) {
		t.Errorf("count = %v, want 1 (non-finite observations dropped)", snap["count"])
	}
	sum := snap["sum"].(float64)
	if sum != 1 || math.IsInf(sum, 0) || math.IsNaN(sum) {
		t.Errorf("sum = %v, want finite 1", sum)
	}
}

// TestHistogramConcurrent validates the CAS-accumulated sum under
// contention (run with -race).
func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(1, 2, 3)
	const goroutines, each = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	snap := h.snapshot()
	if snap["count"] != int64(goroutines*each) {
		t.Errorf("count = %v, want %d", snap["count"], goroutines*each)
	}
	if snap["sum"] != float64(goroutines*each) {
		t.Errorf("sum = %v, want %d (no lost CAS updates)", snap["sum"], goroutines*each)
	}
}

func TestMetricsSnapshotAndServeHTTP(t *testing.T) {
	m := newMetrics()
	m.observeQuery(250*time.Microsecond, true, nil)
	m.observeQuery(time.Millisecond, false, errTest)
	m.observeBatch(2)
	m.ObserveQError(3.5)
	m.observeStatus(200)
	m.observeStatus(404)
	m.observeStatus(500)

	snap := m.Snapshot()
	checks := map[string]int64{
		"queries_total":         2,
		"degraded_total":        1,
		"estimate_errors_total": 1,
		"batches_total":         1,
		"batched_queries_total": 2,
		"responses_2xx":         1,
		"responses_4xx":         1,
		"responses_5xx":         1,
	}
	for key, want := range checks {
		if snap[key] != want {
			t.Errorf("%s = %v, want %d", key, snap[key], want)
		}
	}

	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var rendered map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &rendered); err != nil {
		t.Fatalf("/metrics is not JSON: %v", err)
	}
	for key := range snap {
		if _, ok := rendered[key]; !ok {
			t.Errorf("rendered metrics missing %q", key)
		}
	}
	lat := rendered["latency_micros"].(map[string]any)
	if lat["count"] != 2.0 {
		t.Errorf("rendered latency count = %v, want 2", lat["count"])
	}
}

// TestSnapshotReportsMemory: the process's memory is on /metrics, read from
// runtime/metrics: what the last collection marked live, the heap size the
// next one starts at (never below it), and what the runtime holds mapped
// (the live heap is part of it).
func TestSnapshotReportsMemory(t *testing.T) {
	runtime.GC() // heap_live_bytes is zero until a first cycle has marked
	snap := newMetrics().Snapshot()
	live, _ := snap["heap_live_bytes"].(uint64)
	goal, _ := snap["heap_goal_bytes"].(uint64)
	mapped, _ := snap["mem_mapped_bytes"].(uint64)
	if live == 0 || live > goal || live > mapped {
		t.Errorf("heap_live_bytes %d, heap_goal_bytes %d, mem_mapped_bytes %d: want 0 < live <= goal and live <= mapped", live, goal, mapped)
	}
}

// TestLatencyBucketsResolveHitFromMiss: with no timer on the single-query
// path a cache hit is ~20µs and an inline miss ~100µs; latency_micros must
// put them in different buckets, and count/sum keep their meaning.
func TestLatencyBucketsResolveHitFromMiss(t *testing.T) {
	m := newMetrics()
	m.observeQuery(20*time.Microsecond, false, nil)
	m.observeQuery(100*time.Microsecond, false, nil)
	snap := m.latency.snapshot()
	for _, b := range snap["buckets"].([]bucket) {
		want := int64(0)
		if b.LE == 25.0 || b.LE == 100.0 {
			want = 1
		}
		if b.N != want {
			t.Errorf("bucket le=%v holds %d, want %d", b.LE, b.N, want)
		}
	}
	if snap["count"] != int64(2) || snap["sum"] != 120.0 {
		t.Errorf("count/sum = %v/%v, want 2/120", snap["count"], snap["sum"])
	}
}

// errTest is a fixed error for metrics accounting.
var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test failure" }

func TestLimiter(t *testing.T) {
	l := newLimiter(2)
	if l.capacity() != 2 {
		t.Fatalf("capacity = %d, want 2", l.capacity())
	}
	if !l.tryAcquire() || !l.tryAcquire() {
		t.Fatal("acquiring up to capacity must succeed")
	}
	if l.tryAcquire() {
		t.Fatal("over-capacity acquire succeeded")
	}
	if l.inFlight() != 2 {
		t.Errorf("inFlight = %d, want 2", l.inFlight())
	}
	l.release()
	if !l.tryAcquire() {
		t.Error("acquire after release failed")
	}
	// A zero/negative bound still admits one request at a time.
	if newLimiter(0).capacity() != 1 {
		t.Error("limiter with bound 0 must clamp to 1")
	}
}

func TestLifecycleMetrics(t *testing.T) {
	m := newMetrics()
	m.observeCanary(true)
	m.observeCanary(true)
	m.observeCanary(false)
	at := time.Unix(1_700_000_000, 0)
	m.observeRollback(at, "manual")
	m.observeQuarantine()
	m.setStoreGeneration(7)
	m.setCanaryThresholds(10, 100)

	snap := m.Snapshot()
	want := map[string]any{
		"canary_pass_total":    int64(2),
		"canary_fail_total":    int64(1),
		"rollbacks_total":      int64(1),
		"quarantined_total":    int64(1),
		"last_rollback_unix":   at.Unix(),
		"last_rollback_reason": "manual",
		"store_generation":     uint64(7),
		"canary_max_median":    10.0,
		"canary_max_p95":       100.0,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("%s = %v (%T), want %v (%T)", k, snap[k], snap[k], v, v)
		}
	}

	// The lifecycle observers must tolerate running before a server binds
	// them (nil receiver).
	var unbound *Metrics
	unbound.observeCanary(true)
	unbound.observeRollback(at, "manual")
	unbound.observeQuarantine()
	unbound.setStoreGeneration(1)
	unbound.setCanaryThresholds(1, 1)
}
