package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"qfe/internal/journal"
)

// This file is the servemetrics layer: lock-free atomic counters plus
// fixed-bucket histograms, rendered at /metrics as expvar-style JSON. The
// hot path pays a handful of atomic adds per request; rendering walks the
// counters without stopping traffic.

// histogram is a fixed-bucket histogram safe for concurrent Observe. bounds
// are ascending upper bounds; an implicit +Inf bucket catches the tail.
// Buckets are cumulative-free (each count is its own bucket); renderers sum
// if they want CDFs.
type histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds ...float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records v. Non-finite observations are dropped: a NaN or a
// single ±Inf would poison sum permanently (every later finite observation
// still renders an infinite sum in /metrics).
func (h *histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// bucket is one rendered histogram bucket: the upper bound ("inf" for the
// overflow bucket) and its count.
type bucket struct {
	LE any   `json:"le"`
	N  int64 `json:"n"`
}

// snapshot renders the histogram as an ordered bucket list plus count/sum.
func (h *histogram) snapshot() map[string]any {
	buckets := make([]bucket, 0, len(h.counts))
	for i := range h.counts {
		le := any("inf")
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		buckets = append(buckets, bucket{LE: le, N: h.counts[i].Load()})
	}
	return map[string]any{
		"buckets": buckets,
		"count":   h.count.Load(),
		"sum":     math.Float64frombits(h.sum.Load()),
	}
}

// Metrics aggregates the server's counters. All fields are safe for
// concurrent use; the zero value is not usable — call newMetrics.
type Metrics struct {
	start time.Time

	requests  atomic.Int64 // HTTP requests to /v1/estimate (single or batch)
	queries   atomic.Int64 // individual queries estimated
	batches   atomic.Int64 // client batches fanned out over the worker pool (singles never count)
	batchedQs atomic.Int64 // queries carried by those batches (cache hits excluded)
	shed      atomic.Int64 // requests rejected by admission control (429)
	drained   atomic.Int64 // requests rejected because the server is draining (503)
	degraded  atomic.Int64 // queries answered by a non-primary resilience stage
	estErrors atomic.Int64 // queries given no estimate (text that does not parse or bind, a non-finite "actual"): a batch item's error, and a single's 400 for it
	swaps     atomic.Int64 // model registry loads/swaps

	// Estimate-cache counters (generation-scoped semantic cache, cache.go).
	cacheHits      atomic.Int64 // estimates served from the cache
	cacheMisses    atomic.Int64 // estimates computed (and possibly stored)
	cacheEvictions atomic.Int64 // entries displaced by LRU pressure

	// Model-lifecycle counters (canary gate, rollback). The lifecycle creates
	// the Metrics and serve.New adopts them, so a verdict reached at boot,
	// before the server exists, is counted.
	canaryPass  atomic.Int64 // canary runs that admitted a model
	canaryFail  atomic.Int64 // canary runs that rejected a model
	rollbacks   atomic.Int64 // registry rollbacks to a previous generation
	quarantines atomic.Int64 // generations quarantined (publish-time or live)

	lastRollbackUnix   atomic.Int64  // unix seconds of the last rollback, 0 = never
	lastRollbackReason atomic.Value  // string: why it happened, unset = never
	storeGeneration    atomic.Uint64 // store generation backing the live model
	canaryMaxMedian    float64       // configured gate thresholds, set by NewLifecycle
	canaryMaxP95       float64

	ok2xx  atomic.Int64
	err4xx atomic.Int64
	err5xx atomic.Int64

	inFlight atomic.Int64

	latency *histogram // per-query estimation latency, microseconds
	qerror  *histogram // q-error of estimates with reported actuals

	jnl *journal.Journal // the lifecycle's feedback journal, rendered as journal_*; nil without one
}

func newMetrics() *Metrics {
	return &Metrics{
		start: time.Now(),
		// Latency buckets span 10µs to 1s in roughly 1-2.5-5 steps. A cache
		// hit costs ~20µs and an inline miss ~100µs, so the low end tells
		// the two apart; the high end resolves deadline blowups.
		latency: newHistogram(10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000),
		// Q-error buckets follow the paper's reporting granularity.
		qerror: newHistogram(1.5, 2, 3, 5, 10, 25, 100, 1_000, 10_000),
	}
}

// observeQuery records one estimated query's latency and degradation.
func (m *Metrics) observeQuery(d time.Duration, degraded bool) {
	m.queries.Add(1)
	m.latency.Observe(float64(d.Microseconds()))
	if degraded {
		m.degraded.Add(1)
	}
}

// observeBatch records one client batch whose n misses were estimated.
func (m *Metrics) observeBatch(n int) {
	m.batches.Add(1)
	m.batchedQs.Add(int64(n))
}

// ObserveQError records the q-error of an estimate whose true cardinality
// the client reported (post-execution feedback).
func (m *Metrics) ObserveQError(q float64) { m.qerror.Observe(q) }

// observeCanary records one canary verdict.
func (m *Metrics) observeCanary(pass bool) {
	if pass {
		m.canaryPass.Add(1)
	} else {
		m.canaryFail.Add(1)
	}
}

// observeRollback records a registry rollback at time t, and why.
func (m *Metrics) observeRollback(t time.Time, reason string) {
	m.rollbacks.Add(1)
	m.lastRollbackUnix.Store(t.Unix())
	m.lastRollbackReason.Store(reason)
}

// observeQuarantine records one quarantined generation.
func (m *Metrics) observeQuarantine() { m.quarantines.Add(1) }

func (m *Metrics) observeStatus(code int) {
	switch {
	case code >= 500:
		m.err5xx.Add(1)
	case code >= 400:
		m.err4xx.Add(1)
	case code >= 200 && code < 300:
		m.ok2xx.Add(1)
	}
}

// memory reads the process's memory from runtime/metrics, which stops
// nothing (runtime.ReadMemStats stops the world, and a scrape must not): the
// heap the last GC marked live, the heap size the next cycle starts at, and
// what the runtime holds mapped and has not returned to the OS — the part of
// it VmRSS can count.
func memory() (live, goal, mapped uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/goal:bytes"},
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64() - s[3].Value.Uint64()
}

// Snapshot renders every counter into a flat, JSON-marshalable map.
// encoding/json sorts map keys, so the output is deterministic.
func (m *Metrics) Snapshot() map[string]any {
	heapLive, heapGoal, memMapped := memory()
	rollbackReason, _ := m.lastRollbackReason.Load().(string)
	snap := map[string]any{
		"uptime_seconds":        time.Since(m.start).Seconds(),
		"requests_total":        m.requests.Load(),
		"queries_total":         m.queries.Load(),
		"batches_total":         m.batches.Load(),
		"batched_queries_total": m.batchedQs.Load(),
		"shed_total":            m.shed.Load(),
		"drained_total":         m.drained.Load(),
		"degraded_total":        m.degraded.Load(),
		"estimate_errors_total": m.estErrors.Load(),
		"model_swaps_total":     m.swaps.Load(),
		"cache_hits":            m.cacheHits.Load(),
		"cache_misses":          m.cacheMisses.Load(),
		"cache_evictions":       m.cacheEvictions.Load(),
		"canary_pass_total":     m.canaryPass.Load(),
		"canary_fail_total":     m.canaryFail.Load(),
		"rollbacks_total":       m.rollbacks.Load(),
		"quarantined_total":     m.quarantines.Load(),
		"last_rollback_unix":    m.lastRollbackUnix.Load(),
		"last_rollback_reason":  rollbackReason,
		"store_generation":      m.storeGeneration.Load(),
		"canary_max_median":     m.canaryMaxMedian,
		"canary_max_p95":        m.canaryMaxP95,
		"responses_2xx":         m.ok2xx.Load(),
		"responses_4xx":         m.err4xx.Load(),
		"responses_5xx":         m.err5xx.Load(),
		"in_flight":             m.inFlight.Load(),
		"heap_live_bytes":       heapLive,
		"heap_goal_bytes":       heapGoal,
		"mem_mapped_bytes":      memMapped,
		"gomaxprocs":            runtime.GOMAXPROCS(0),
		"latency_micros":        m.latency.snapshot(),
		"qerror":                m.qerror.snapshot(),
	}
	if m.jnl != nil {
		js := m.jnl.Stats()
		snap["journal_appended"] = js.Appended
		snap["journal_shed"] = js.Shed
		snap["journal_persisted"] = js.Persisted
		snap["journal_dropped"] = js.Dropped
		snap["journal_staged"] = js.Staged
		snap["journal_flushes"] = js.Flushes
		snap["journal_flush_micros"] = js.FlushMicros
		snap["journal_flush_errors"] = js.FlushErrors
		snap["journal_rotations"] = js.Rotations
		snap["journal_gc_removed"] = js.GCRemoved
		snap["journal_segments"] = js.SealedSegments
		snap["journal_active_bytes"] = js.ActiveBytes
	}
	return snap
}

// ServeHTTP renders the snapshot as JSON, expvar-style.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(m.Snapshot()) //nolint:errcheck // best-effort scrape output
}
