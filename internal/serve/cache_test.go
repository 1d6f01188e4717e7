package serve

import (
	"container/list"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qfe/internal/estimator"
	"qfe/internal/resilience"
	"qfe/internal/sqlparse"
	"qfe/internal/testutil"
)

// okRes wraps a value as a clean primary-stage result.
func okRes(v float64) EstResult { return EstResult{Estimate: v, Stage: "learned"} }

// ck is the cache key of a query text under generation 1.
func ck(sql string) cacheKey { return textKey(1, sql) }

// textKey mints sql's key as a request does, through a hasher of its own.
func textKey(gen uint64, sql string) cacheKey {
	var k keyHasher
	return k.key(gen, sql)
}

func newTestCache(entries int) (*estCache, *Metrics) {
	m := newMetrics()
	return newEstCache(CacheConfig{Entries: entries}, m, false), m
}

// sameShard returns n query texts whose keys fall into one shard of c, so
// that their LRU order is that shard's.
func sameShard(c *estCache, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		sql := fmt.Sprint("q", i)
		if len(out) == 0 || c.shard(ck(sql)) == c.shard(ck(out[0])) {
			out = append(out, sql)
		}
	}
	return out
}

func TestCacheDisabledByZeroConfig(t *testing.T) {
	if c := newEstCache(CacheConfig{}, newMetrics(), false); c != nil {
		t.Fatal("zero CacheConfig must disable the cache")
	}
	if c := newEstCache(CacheConfig{Entries: -1}, newMetrics(), false); c != nil {
		t.Fatal("negative Entries must disable the cache")
	}
}

// get is a request's way through the cache: lookup, and on a miss compute
// and put.
func get(c *estCache, key cacheKey, compute func() EstResult) EstResult {
	if res, _, ok := c.lookup(key); ok {
		return res
	}
	res := compute()
	c.put(key, res, nil)
	return res
}

func TestCacheHitMissEvict(t *testing.T) {
	c, m := newTestCache(2 * cacheShards) // two entries per shard
	keys := sameShard(c, 3)               // one shard's: LRU order is deterministic
	a, b, cc := ck(keys[0]), ck(keys[1]), ck(keys[2])

	calls := 0
	compute := func(v float64) func() EstResult {
		return func() EstResult { calls++; return okRes(v) }
	}

	if res := get(c, a, compute(1)); res.Estimate != 1 {
		t.Fatalf("first a: %+v", res)
	}
	if res := get(c, a, compute(99)); res.Estimate != 1 {
		t.Fatalf("cached a: %+v, want the first computation's value", res)
	}
	get(c, b, compute(2))
	get(c, a, compute(99)) // refreshes a's recency
	get(c, cc, compute(3)) // capacity 2: evicts b, the LRU entry
	if res := get(c, a, compute(99)); res.Estimate != 1 {
		t.Fatalf("a must have survived (its hit refreshed recency): %+v", res)
	}
	if res := get(c, b, compute(4)); res.Estimate != 4 {
		t.Fatalf("b after eviction: %+v, want recomputed 4", res)
	}

	if calls != 4 {
		t.Errorf("computed %d times, want 4 (a, b, c, b-again)", calls)
	}
	if h, mi, ev := m.cacheHits.Load(), m.cacheMisses.Load(), m.cacheEvictions.Load(); h != 3 || mi != 4 || ev != 2 {
		t.Errorf("hits/misses/evictions = %d/%d/%d, want 3/4/2", h, mi, ev)
	}
	if got := c.len(); got != 2 {
		t.Errorf("cache holds %d entries, want 2", got)
	}
}

// TestCacheKeyIsGenerationScoped: the same text under two generations is two
// entries, and neither answers for the other.
func TestCacheKeyIsGenerationScoped(t *testing.T) {
	c, _ := newTestCache(2 * cacheShards) // the two keys share a shard: they differ only in generation
	old, cur := textKey(1, stubSQL), textKey(2, stubSQL)
	c.put(old, okRes(10), nil)
	if _, _, ok := c.lookup(cur); ok {
		t.Fatal("generation 2 was answered from generation 1's entry")
	}
	c.put(cur, okRes(20), nil)
	if res, _, ok := c.lookup(old); !ok || res.Estimate != 10 {
		t.Errorf("generation 1: %+v, %v, want its own 10", res, ok)
	}
	if res, _, ok := c.lookup(cur); !ok || res.Estimate != 20 {
		t.Errorf("generation 2: %+v, %v, want its own 20", res, ok)
	}
}

// TestCacheGetAllocs pins the lookup at zero allocations, key included: the
// digest of a query text as long as the benchmark's is a fixed-size value
// minted on the stack, and the shard map is keyed on it as it stands.
func TestCacheGetAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c, _ := newTestCache(64)
	sql := "SELECT count(*) FROM forest WHERE " + strings.Repeat("(A1 >= 2600 OR A2 < 40) AND ", 16) + "A3 = 1"
	c.put(textKey(7, sql), okRes(5), nil)
	var k keyHasher // a request's, reused from call to call as a pooled scratch's is
	if allocs := testing.AllocsPerRun(200, func() {
		if _, _, ok := c.lookup(k.key(7, sql)); !ok {
			t.Fatal("present key missed")
		}
	}); allocs != 0 {
		t.Errorf("keying and looking up a present %d-byte text allocates %v times, want 0", len(sql), allocs)
	}
}

func TestCacheUncacheableResults(t *testing.T) {
	c, m := newTestCache(8)

	calls := 0
	for i, res := range []EstResult{
		{Estimate: 7, Degraded: true, Stage: "independence"},
		{Estimate: 1, Degraded: true, Stage: "row-count heuristic"},
	} {
		res := res
		key := fmt.Sprintf("k%d", i)
		for j := 0; j < 2; j++ {
			got := get(c, ck(key), func() EstResult { calls++; return res })
			if got != res {
				t.Fatalf("key %s round %d: %+v, want %+v", key, j, got, res)
			}
		}
	}
	if calls != 4 {
		t.Errorf("computed %d times, want 4: degraded results must never be cached", calls)
	}
	if h := m.cacheHits.Load(); h != 0 {
		t.Errorf("%d hits on uncacheable results, want 0", h)
	}
}

// ---- the slot LRU against the container/list LRU it replaced ----

// listCache is the estimate cache as it was before the slot array: each
// shard an LRU of container/list elements holding *listEntry, evicting the
// back past capacity. TestSlotLRUMatchesListLRU holds estCache to it.
type listCache struct {
	shards  []*listShard
	mask    uint32
	perCap  int
	keepQ   bool
	metrics *Metrics
}

type listEntry struct {
	key cacheKey
	res EstResult
	q   *sqlparse.Query
}

type listShard struct {
	mu      sync.Mutex
	entries map[cacheKey]*list.Element
	lru     *list.List
}

func newListCache(cfg CacheConfig, m *Metrics, keepQ bool) *listCache {
	c := &listCache{
		shards:  make([]*listShard, cacheShards),
		mask:    cacheShards - 1,
		perCap:  max(1, (cfg.Entries+cacheShards-1)/cacheShards),
		keepQ:   keepQ,
		metrics: m,
	}
	for i := range c.shards {
		c.shards[i] = &listShard{
			entries: make(map[cacheKey]*list.Element),
			lru:     list.New(),
		}
	}
	return c
}

func (c *listCache) shard(key cacheKey) *listShard {
	return c.shards[binary.LittleEndian.Uint32(key.sum[:])&c.mask]
}

func (c *listCache) lookup(key cacheKey) (EstResult, *sqlparse.Query, bool) {
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.lru.MoveToFront(e)
		ent := e.Value.(*listEntry)
		res, q := ent.res, ent.q
		s.mu.Unlock()
		c.metrics.cacheHits.Add(1)
		return res, q, true
	}
	s.mu.Unlock()
	return EstResult{}, nil, false
}

func (c *listCache) put(key cacheKey, res EstResult, q *sqlparse.Query) {
	c.metrics.cacheMisses.Add(1)
	if res.Degraded {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	c.insertLocked(s, key, res, q)
	s.mu.Unlock()
}

func (c *listCache) insertLocked(s *listShard, key cacheKey, res EstResult, q *sqlparse.Query) {
	if !c.keepQ {
		q = nil
	}
	if e, ok := s.entries[key]; ok {
		ent := e.Value.(*listEntry)
		ent.res, ent.q = res, q
		s.lru.MoveToFront(e)
		return
	}
	s.entries[key] = s.lru.PushFront(&listEntry{key: key, res: res, q: q})
	for s.lru.Len() > c.perCap {
		tail := s.lru.Back()
		s.lru.Remove(tail)
		delete(s.entries, tail.Value.(*listEntry).key)
		c.metrics.cacheEvictions.Add(1)
	}
}

func (c *listCache) len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// TestSlotLRUMatchesListLRU drives the slot LRU and the list LRU through the
// same random lookup/put sequences, keys drawn from a pool a few times the
// capacity, results sometimes uncacheable, queries sometimes absent: every
// call answers the same, and after every call the two hold the same count,
// and have counted the same hits, misses and evictions. A final sweep of
// lookups over the whole pool compares what each retained, queries included.
func TestSlotLRUMatchesListLRU(t *testing.T) {
	queries := []*sqlparse.Query{nil, {}, {}, {}}
	for _, perCap := range []int{1, 2, 3, 8} {
		for _, keepQ := range []bool{false, true} {
			name := fmt.Sprintf("perCap=%d/keepQ=%v", perCap, keepQ)
			cfg := CacheConfig{Entries: perCap * cacheShards}
			gm, wm := newMetrics(), newMetrics()
			got, want := newEstCache(cfg, gm, keepQ), newListCache(cfg, wm, keepQ)
			if got.perCap != perCap || want.perCap != perCap {
				t.Fatalf("%s: perCap %d / %d", name, got.perCap, want.perCap)
			}
			rng := rand.New(rand.NewSource(int64(100 * perCap)))
			keys := make([]cacheKey, 3*perCap*cacheShards+2)
			for i := range keys {
				keys[i] = ck(fmt.Sprint("q", i))
			}
			result := func() EstResult {
				switch rng.Intn(8) {
				case 0:
					return EstResult{Estimate: 1, Stage: "row-count heuristic", Degraded: true}
				case 1:
					return EstResult{Estimate: 3, Stage: "sampling", Degraded: true}
				default:
					return okRes(float64(rng.Intn(1000)))
				}
			}
			for step := 0; step < 4000; step++ {
				key := keys[rng.Intn(len(keys))]
				q := queries[rng.Intn(len(queries))]
				switch rng.Intn(2) {
				case 0:
					gr, gq, gok := got.lookup(key)
					wr, wq, wok := want.lookup(key)
					if gr != wr || gq != wq || gok != wok {
						t.Fatalf("%s step %d: lookup = %+v %p %v, want %+v %p %v", name, step, gr, gq, gok, wr, wq, wok)
					}
				case 1:
					res := result()
					got.put(key, res, q)
					want.put(key, res, q)
				}
				if g, w := got.len(), want.len(); g != w {
					t.Fatalf("%s step %d: len %d, want %d", name, step, g, w)
				}
				if g, w := gm.Snapshot(), wm.Snapshot(); g["cache_hits"] != w["cache_hits"] ||
					g["cache_misses"] != w["cache_misses"] || g["cache_evictions"] != w["cache_evictions"] {
					t.Fatalf("%s step %d: hits/misses/evictions %v/%v/%v, want %v/%v/%v", name, step,
						g["cache_hits"], g["cache_misses"], g["cache_evictions"],
						w["cache_hits"], w["cache_misses"], w["cache_evictions"])
				}
			}
			if wm.cacheEvictions.Load() == 0 {
				t.Errorf("%s: nothing was evicted; the sequence does not exercise the LRU", name)
			}
			for _, key := range keys {
				gr, gq, gok := got.lookup(key)
				wr, wq, wok := want.lookup(key)
				if gr != wr || gq != wq || gok != wok {
					t.Errorf("%s: retained %+v %p %v, want %+v %p %v", name, gr, gq, gok, wr, wq, wok)
				}
			}
		}
	}
}

// ---- server-level behavior ----

// cachedServer builds a stub server with the estimate cache enabled.
func cachedServer(tb testing.TB, est estimator.Estimator, mutate func(*Config)) *Server {
	return newStubServer(tb, est, func(cfg *Config) {
		cfg.Cache = CacheConfig{Entries: 128}
		if mutate != nil {
			mutate(cfg)
		}
	})
}

// countingEst counts calls and answers with a fixed value.
type countingEst struct {
	calls atomic.Int64
	value float64
}

func (c *countingEst) Name() string { return "counting" }
func (c *countingEst) Estimate(*sqlparse.Query) (float64, error) {
	c.calls.Add(1)
	return c.value, nil
}

// TestServerCacheHitIsBitIdentical: a repeated text is answered from the
// cache with the very bits the model produced, and a spelling variant of it —
// same featurization class, different text — is a different key: it
// recomputes (variants_test.go holds a real model to the same estimate).
func TestServerCacheHitIsBitIdentical(t *testing.T) {
	est := &countingEst{value: 1234.5678901234}
	srv := cachedServer(t, est, nil)
	h := srv.Handler()

	// Three syntactic spellings of one equivalence class, the first twice.
	texts := []string{
		"SELECT count(*) FROM t WHERE a >= 1",
		"SELECT count(*) FROM t WHERE a >= 1",
		"SELECT count(*) FROM t WHERE a > 0",
		"SELECT count(*) FROM t WHERE a >= 1 AND a >= 1",
	}
	for i, sql := range texts {
		code, body := postJSON(t, h, "/v1/estimate", map[string]any{"sql": sql})
		if code != http.StatusOK {
			t.Fatalf("POST %q: %d %v", sql, code, body)
		}
		if e := body["estimate"].(float64); e != est.value {
			t.Fatalf("text %d estimate %v, want bit-identical %v", i, e, est.value)
		}
	}
	if n := est.calls.Load(); n != 3 {
		t.Errorf("estimator ran %d times for 3 distinct texts (one repeated), want 3", n)
	}
	m := srv.Metrics()
	if h, mi := m.cacheHits.Load(), m.cacheMisses.Load(); h != 1 || mi != 3 {
		t.Errorf("hits/misses = %d/%d, want 1/3", h, mi)
	}
}

func TestServerCacheBatchPath(t *testing.T) {
	est := &countingEst{value: 5}
	srv := cachedServer(t, est, nil)
	h := srv.Handler()

	batch := map[string]any{"queries": []map[string]any{
		{"sql": "SELECT count(*) FROM t WHERE a = 1"},
		{"sql": "SELECT count(*) FROM t WHERE a = 2"},
		{"sql": "SELECT count(*) FROM t WHERE a = 1"}, // duplicate in-batch
	}}
	if code, body := postJSON(t, h, "/v1/estimate", batch); code != http.StatusOK {
		t.Fatalf("batch 1: %d %v", code, body)
	}
	first := est.calls.Load()
	if first != 3 {
		t.Fatalf("first batch ran the estimator %d times, want 3 (a duplicate within a batch is a second miss)", first)
	}
	// Replay: every query now hits.
	if code, body := postJSON(t, h, "/v1/estimate", batch); code != http.StatusOK {
		t.Fatalf("batch 2: %d %v", code, body)
	}
	if n := est.calls.Load(); n != first {
		t.Errorf("replayed batch ran the estimator %d more times, want 0", n-first)
	}
	m := srv.Metrics()
	if h2 := m.cacheHits.Load(); h2 != 3 {
		t.Errorf("cache_hits = %d, want 3", h2)
	}
}

// gatedEst holds every call to the wrapped estimator until n calls are
// inside, so n requests for one key are all computing at once.
type gatedEst struct {
	estimator.Estimator
	n       int64
	entered atomic.Int64
	all     chan struct{} // closed when the n-th call enters
}

func (g *gatedEst) Estimate(q *sqlparse.Query) (float64, error) {
	if g.entered.Add(1) == g.n {
		close(g.all)
	}
	select {
	case <-g.all:
	case <-time.After(5 * time.Second): // a request that never came fails the test below, not by hanging it
	}
	return g.Estimator.Estimate(q)
}

// TestConcurrentIdenticalMissesAgree: n requests for one uncached text, in the
// daemon's shape (a trained model inside the resilience chain), all miss and
// all compute at once on their own goroutines. Each gets the bit-identical
// estimate, each is one hit or one miss, their n concurrent puts of one key
// leave one entry, and the shard's LRU ring is intact: a later insert into
// the full shard evicts the least recently used slot, not the hot one.
func TestConcurrentIdenticalMissesAgree(t *testing.T) {
	const n = 16
	db, set := testEnv(t)
	gate := &gatedEst{Estimator: trainLocal(t, db, set[:400], 16), n: n, all: make(chan struct{})}
	chain := resilience.NewResilient(resilience.Config{}, resilience.Stage{Name: "learned", Est: gate})
	srv := newStubServer(t, chain, func(cfg *Config) {
		cfg.DB = db
		cfg.Cache = CacheConfig{Entries: 2 * cacheShards} // two entries per shard
	})
	h := srv.Handler()
	_, info, err := srv.reg.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	// The hot text and two more that share its shard, so its LRU order is
	// that shard's.
	var texts []string
	for i := 0; len(texts) < 3; i++ {
		sql := set[i].Query.String()
		if len(texts) == 0 || srv.cache.shard(textKey(info.Generation, sql)) == srv.cache.shard(textKey(info.Generation, texts[0])) {
			texts = append(texts, sql)
		}
	}
	hot := texts[0]

	estimates := make([]float64, n)
	var wg sync.WaitGroup
	for i := range estimates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := postJSON(t, h, "/v1/estimate", map[string]any{"sql": hot})
			if code != http.StatusOK || body["stage"] != "learned" {
				t.Errorf("request %d: %d %v, want 200 from the learned stage", i, code, body)
				return
			}
			estimates[i] = body["estimate"].(float64)
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := gate.entered.Load(); got != n {
		t.Fatalf("the model ran %d times for %d concurrent misses, want %d", got, n, n)
	}
	want, err := chain.Estimate(set[0].Query)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range estimates {
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Errorf("request %d: estimate %v, want bit-identical %v", i, v, want)
		}
	}
	m := srv.Metrics()
	if h, mi := m.cacheHits.Load(), m.cacheMisses.Load(); h+mi != n {
		t.Errorf("hits %d + misses %d = %d, want %d: each request is one or the other", h, mi, h+mi, n)
	}
	if got := srv.cache.len(); got != 1 {
		t.Fatalf("cache holds %d entries after %d puts of one key, want 1", got, n)
	}

	post := func(sql string) {
		t.Helper()
		if code, body := postJSON(t, h, "/v1/estimate", map[string]any{"sql": sql}); code != http.StatusOK {
			t.Fatalf("POST %q: %d %v", sql, code, body)
		}
	}
	post(texts[1]) // fills the shard: texts[1] is the head, hot the tail
	post(hot)      // a hit: hot is the head again
	post(texts[2]) // evicts the tail, texts[1]
	if ev := m.cacheEvictions.Load(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	if _, _, ok := srv.cache.lookup(textKey(info.Generation, hot)); !ok {
		t.Error("the eviction took the most recently used entry")
	}
	if _, _, ok := srv.cache.lookup(textKey(info.Generation, texts[1])); ok {
		t.Error("the least recently used entry survived the eviction")
	}
}

// ---- generation-scoped invalidation ----

// TestCachePublishInvalidates: publishing a new default model bumps the
// registry generation, so the very next request misses the cache and is
// answered by the new model — no explicit invalidation call anywhere.
func TestCachePublishInvalidates(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db, canaryWS, good, other := lifecycleEnv(t)
	reg := newChainRegistry()
	lc, err := NewLifecycle(LifecycleConfig{Registry: reg, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Registry:  reg,
		DB:        db,
		Lifecycle: lc,
		Cache:     CacheConfig{Entries: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	ctx := context.Background()

	probe := canaryWS[0].Query
	publish := func(loc *estimator.Local) float64 {
		t.Helper()
		if _, err := lc.Publish(ctx, PublishSpec{Name: "live", Snapshot: snapshotBytes(t, loc), MakeDefault: true}); err != nil {
			t.Fatal(err)
		}
		want, err := loc.Estimate(probe)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	estimate := func() float64 {
		t.Helper()
		code, body := postJSON(t, h, "/v1/estimate", map[string]any{"sql": probe.String()})
		if code != http.StatusOK {
			t.Fatalf("POST: %d %v", code, body)
		}
		return body["estimate"].(float64)
	}

	v1 := publish(good)
	if got := estimate(); got != v1 {
		t.Fatalf("v1 estimate = %v, want %v", got, v1)
	}
	if got := estimate(); got != v1 {
		t.Fatalf("v1 cached estimate = %v, want %v", got, v1)
	}

	v2 := publish(other)
	if v2 == v1 {
		t.Fatal("the two models agree on the probe: the test cannot tell them apart")
	}
	if got := estimate(); got != v2 {
		t.Fatalf("estimate after publish = %v, want the new model's %v — the cache served a stale generation", got, v2)
	}
	m := srv.Metrics()
	if h2, mi := m.cacheHits.Load(), m.cacheMisses.Load(); h2 != 1 || mi != 2 {
		t.Errorf("hits/misses = %d/%d, want 1/2 (publish must force a miss)", h2, mi)
	}
}

// TestCacheRollbackInvalidates: a rollback re-registers the restored
// snapshot under a fresh generation, so cached entries from the rolled-back
// model stop matching.
func TestCacheRollbackInvalidates(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db, canaryWS, good, _ := lifecycleEnv(t)
	lc, reg := newLifecycle(t, t.TempDir(), looseCanary(canaryWS), db)
	srv, err := New(Config{
		Registry:  reg,
		DB:        db,
		Lifecycle: lc,
		Cache:     CacheConfig{Entries: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	ctx := context.Background()

	spec := PublishSpec{Name: "live", Snapshot: snapshotBytes(t, good), MakeDefault: true}
	if _, err := lc.Publish(ctx, spec); err != nil {
		t.Fatal(err)
	}
	p2, err := lc.Publish(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	probe := canaryWS[0].Query.String()
	estimate := func() float64 {
		t.Helper()
		code, body := postJSON(t, h, "/v1/estimate", map[string]any{"sql": probe})
		if code != http.StatusOK {
			t.Fatalf("POST: %d %v", code, body)
		}
		return body["estimate"].(float64)
	}
	before := estimate()
	if again := estimate(); again != before {
		t.Fatalf("cached estimate %v differs from first answer %v", again, before)
	}
	m := srv.Metrics()
	if h2, mi := m.cacheHits.Load(), m.cacheMisses.Load(); h2 != 1 || mi != 1 {
		t.Fatalf("hits/misses before rollback = %d/%d, want 1/1", h2, mi)
	}

	if _, err := lc.Rollback(ctx, "cache invalidation test"); err != nil {
		t.Fatal(err)
	}
	_, info, err := reg.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation == p2.Info.Generation {
		t.Fatal("rollback kept the registry generation; cached entries would survive")
	}

	// Same model weights restored from the snapshot: the answer is the
	// same number, but it must be recomputed, not served from cache.
	after := estimate()
	if after != before {
		t.Fatalf("restored model answers %v, want %v (same snapshot)", after, before)
	}
	if h2, mi := m.cacheHits.Load(), m.cacheMisses.Load(); h2 != 1 || mi != 2 {
		t.Errorf("hits/misses after rollback = %d/%d, want 1/2 (rollback must force a miss)", h2, mi)
	}
}
