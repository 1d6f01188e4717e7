package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"unsafe"

	"qfe/internal/sqlparse"
)

// The estimate cache is the serving hot path's memo: a sharded, LRU-evicted
// map from (model generation, SHA-256 of the query text) to the estimate the
// model produced. The key is the request's "sql" string as the client sent
// it, so a hit is found straight after decode — before sqlparse.Parse,
// exec.Bind or anything else that needs an AST — and a miss pays no
// canonicalization on its way to the model. It is the only cache: a spelling
// variant of a cached query (reordered conjuncts, a duplicated predicate,
// "a > 5" for "a >= 6") is a different key, recomputes, and gets the
// bit-identical estimate anyway, because the estimate is a function of the
// featurization class and not of the cache (DESIGN §6 prices the trade; the
// class's own key, the fingerprint of package core, stays with the journal,
// replay and the trainer's ActualIndex — `make ci` greps that this package
// does not call it). Text that does not parse or bind is never
// estimated, so never inserted, so never served. The registry generation in
// the key makes invalidation free: every Lifecycle.Publish or Rollback
// registers a fresh entry with a new generation, so all keys minted against
// the displaced model simply stop matching and age out of the LRU.
//
// For a server with a Feedback hook an entry also keeps the parsed, bound
// query its miss produced, and a hit hands that query to the hook instead of
// parsing the text again (see cacheEntry for the sharing rule); a server
// without a hook keeps estimates only.
//
// Misses are collapsed with a singleflight: when N requests for the same
// key arrive concurrently, one computes and the rest wait for its result,
// so a thundering herd of identical queries costs one model inference.
//
// What is never cached: failed estimates, degraded (fallback-stage)
// results, and non-finite values — and the server bypasses the cache
// entirely while the drift monitor has an active alarm, because a stale
// estimate during drift is worse than recomputation.

// CacheConfig tunes the estimate cache. The zero value disables it;
// embedders (and cmd/cardestd) opt in by setting Entries.
type CacheConfig struct {
	// Entries bounds the total cached estimates across all shards; past it
	// the least recently used entry of the insert's shard is evicted.
	// <= 0 disables the cache.
	Entries int
	// Shards is the number of independently locked cache shards (rounded up
	// to a power of two). Default 16.
	Shards int
}

// cacheKey scopes a query's text to the model generation that will answer
// it: a fixed-size value — no string, no hex — so minting one and looking it
// up allocate nothing.
type cacheKey struct {
	gen uint64
	sum [sha256.Size]byte
}

// textKey mints sql's key. The digest reads the string's bytes in place
// ([]byte(sql) would copy them to the heap on every request); nothing writes
// through the slice and it does not outlive the call.
func textKey(gen uint64, sql string) cacheKey {
	return cacheKey{gen: gen, sum: sha256.Sum256(unsafe.Slice(unsafe.StringData(sql), len(sql)))}
}

// cacheable reports whether an estimate may be served again: only clean,
// finite, primary-stage results. Degraded results reflect a fallback the
// next request may not need, and errors must re-run to heal.
func cacheable(res EstResult) bool {
	return res.Err == nil && !res.Degraded &&
		!math.IsNaN(res.Estimate) && !math.IsInf(res.Estimate, 0)
}

// flight is one in-progress computation other requests for the same key
// wait on.
type flight struct {
	done chan struct{} // closed when res is set
	res  EstResult
}

// cacheEntry is one memoized estimate. q is the parsed, bound query the miss
// produced, kept only for a server with a Feedback hook — the hook is owed
// the query on every hit, and re-parsing text the cache has just answered was
// most of what a feedback hit cost — and nil otherwise, so a server without a
// hook retains no AST. A cached query is shared by every request that hits
// its key and is read-only from the moment it is stored: exec.Bind is
// copy-on-write and has already run, estimators and the fingerprint only read,
// and a hook must not write through FeedbackEvent.Query.
type cacheEntry struct {
	key cacheKey
	res EstResult
	q   *sqlparse.Query
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[cacheKey]*list.Element // key → element holding *cacheEntry
	lru     *list.List                 // front = most recently used
	flights map[cacheKey]*flight
}

// estCache is the sharded LRU + singleflight store. Create with
// newEstCache; a nil *estCache is a valid always-miss, never-store cache.
type estCache struct {
	shards  []*cacheShard
	mask    uint32
	perCap  int      // per-shard entry capacity, >= 1
	keepQ   bool     // entries keep their query (the server has a Feedback hook)
	metrics *Metrics // hit/miss/eviction/collapse counters
}

func newEstCache(cfg CacheConfig, m *Metrics, keepQ bool) *estCache {
	if cfg.Entries <= 0 {
		return nil
	}
	n := cfg.Shards
	if n <= 0 {
		n = 16
	}
	// Round up to a power of two so shard selection is a mask.
	pow := 1
	for pow < n {
		pow <<= 1
	}
	c := &estCache{
		shards:  make([]*cacheShard, pow),
		mask:    uint32(pow - 1),
		perCap:  (cfg.Entries + pow - 1) / pow,
		keepQ:   keepQ,
		metrics: m,
	}
	if c.perCap < 1 {
		c.perCap = 1
	}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			entries: make(map[cacheKey]*list.Element),
			lru:     list.New(),
			flights: make(map[cacheKey]*flight),
		}
	}
	return c
}

// shard picks key's shard by the digest's leading bytes. The generation
// stays out of it: a displaced generation's entries age out of whichever
// shard they share with their successors.
func (c *estCache) shard(key cacheKey) *cacheShard {
	return c.shards[binary.LittleEndian.Uint32(key.sum[:])&c.mask]
}

// lookup returns key's cached result and the query stored with it (nil
// unless the server keeps them), counting a hit when there is one and
// nothing otherwise: both request paths ask here first, before they have
// parsed the text, and count the miss once it has turned out to be a query
// (the single path in do, the client-batch path itself).
func (c *estCache) lookup(key cacheKey) (EstResult, *sqlparse.Query, bool) {
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.lru.MoveToFront(e)
		ent := e.Value.(*cacheEntry)
		res, q := ent.res, ent.q
		s.mu.Unlock()
		c.metrics.cacheHits.Add(1)
		return res, q, true
	}
	s.mu.Unlock()
	return EstResult{}, nil, false
}

// put stores a computed result and the query to hand its hits (batch path);
// uncacheable results are dropped.
func (c *estCache) put(key cacheKey, res EstResult, q *sqlparse.Query) {
	if !cacheable(res) {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	c.insertLocked(s, key, res, q)
	s.mu.Unlock()
}

// do returns the cached result for key or computes it, collapsing
// concurrent identical misses into one compute call; q is stored with a
// result that is cached. The caller's ctx only bounds its own wait: a
// follower whose context expires unblocks immediately, and a follower that
// inherits a leader's context-shaped failure recomputes for itself rather
// than propagating an error that says nothing about its own request.
func (c *estCache) do(ctx context.Context, key cacheKey, q *sqlparse.Query, compute func() EstResult) EstResult {
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.lru.MoveToFront(e)
		res := e.Value.(*cacheEntry).res
		s.mu.Unlock()
		c.metrics.cacheHits.Add(1)
		return res
	}
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		c.metrics.cacheCollapsed.Add(1)
		select {
		case <-f.done:
		case <-ctx.Done():
			return EstResult{Err: ctx.Err()}
		}
		res := f.res
		if res.Err != nil && isContextErr(res.Err) && ctx.Err() == nil {
			// The leader was cut short by its own deadline or client; this
			// request is still live, so its estimate is still owed.
			return compute()
		}
		return res
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()
	c.metrics.cacheMisses.Add(1)

	finished := false
	defer func() {
		// On panic (propagated to the HTTP layer's recovery) the flight
		// still resolves, so followers never hang on a leader that died.
		if !finished {
			f.res = EstResult{Err: errors.New("serve: estimate computation panicked")}
			s.mu.Lock()
			delete(s.flights, key)
			s.mu.Unlock()
			close(f.done)
		}
	}()
	res := compute()
	finished = true

	s.mu.Lock()
	delete(s.flights, key)
	if cacheable(res) {
		c.insertLocked(s, key, res, q)
	}
	s.mu.Unlock()
	f.res = res
	close(f.done)
	return res
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// insertLocked adds or refreshes key under s.mu, evicting the shard's LRU
// tail past capacity. This is the one place that decides whether an entry
// keeps its query.
func (c *estCache) insertLocked(s *cacheShard, key cacheKey, res EstResult, q *sqlparse.Query) {
	if !c.keepQ {
		q = nil
	}
	if e, ok := s.entries[key]; ok {
		ent := e.Value.(*cacheEntry)
		ent.res, ent.q = res, q
		s.lru.MoveToFront(e)
		return
	}
	s.entries[key] = s.lru.PushFront(&cacheEntry{key: key, res: res, q: q})
	for s.lru.Len() > c.perCap {
		tail := s.lru.Back()
		s.lru.Remove(tail)
		delete(s.entries, tail.Value.(*cacheEntry).key)
		c.metrics.cacheEvictions.Add(1)
	}
}

// len reports the cached entry count across shards (tests and status).
func (c *estCache) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}
