package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
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
// class's own key, package core's fingerprint, is replay's — `make ci` greps
// that this package does not call it). Text that does not parse or bind is never
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
// A miss is computed by the request that missed, on its own goroutine:
// concurrent identical misses each compute the same deterministic estimate
// and each store it (insertLocked refreshes a present key), so no request
// waits on another's work. A burst of identical misses computes at most
// MaxInFlight times; a singleflight that made them wait on one compute
// instead collapsed no request on any of cmd/bench's workloads (DESIGN §6).
//
// What is never cached: a degraded (fallback-stage) answer, and a text that
// did not parse or bind, which was never estimated. A hit is therefore
// exactly what the same generation would recompute.

// CacheConfig tunes the estimate cache. The zero value disables it;
// embedders (and cmd/cardestd) opt in by setting Entries.
type CacheConfig struct {
	// Entries bounds the total cached estimates across all shards; past it
	// the least recently used entry of the insert's shard is evicted.
	// <= 0 disables the cache.
	Entries int
}

const cacheShards = 16 // independently locked shards; a power of two, so selection is a mask

// cacheKey scopes a query's text to the model generation that will answer
// it: a fixed-size value — no string, no hex — so minting one and looking it
// up allocate nothing.
type cacheKey struct {
	gen uint64
	sum [sha256.Size]byte
}

// keyHasher mints cache keys through one digest state and one output buffer
// it keeps, so minting a key allocates nothing whatever the compiler inlines:
// sha256.Sum256's state is a local that escapes once a profile-guided build
// stops inlining sha256.New into it. Each request's scratch holds one.
type keyHasher struct {
	h   hash.Hash // from sha256.New, made on first use
	out [sha256.Size]byte
}

// key mints sql's key under gen. The digest reads the string's bytes in place
// ([]byte(sql) would copy them to the heap on every request); nothing writes
// through the slice and it does not outlive the call.
func (k *keyHasher) key(gen uint64, sql string) cacheKey {
	if k.h == nil {
		k.h = sha256.New()
	}
	k.h.Reset()
	k.h.Write(unsafe.Slice(unsafe.StringData(sql), len(sql))) // a hash.Hash never returns an error
	key := cacheKey{gen: gen}
	copy(key.sum[:], k.h.Sum(k.out[:0]))
	return key
}

// cacheEntry is one memoized estimate. q is the parsed, bound query the miss
// produced, kept only for a server with a Feedback hook — the hook is owed
// the query on every hit, and re-parsing text the cache has just answered was
// most of what a feedback hit cost — and nil otherwise, so a server without a
// hook retains no AST. A cached query is shared by every request that hits
// its key and is read-only from the moment it is stored: exec.Bind is
// copy-on-write and has already run, estimators and the fingerprint only read,
// and a hook must not write through FeedbackEvent.Query.
//
// An entry is a slot of its shard's slots array, linked into the shard's LRU
// ring by index.
type cacheEntry struct {
	key        cacheKey
	res        EstResult
	q          *sqlparse.Query
	prev, next int32 // ring neighbours: prev toward the tail, next toward the head
}

// cacheShard is one lock's worth of the cache: an LRU over a slice of slots.
// The slots form a circular doubly linked list by index; head is the most
// recently used slot and slots[head].prev the least. A shard at capacity
// evicts by overwriting its tail slot in place and making it the head, so a
// miss that evicts allocates nothing but what the map may need for its key.
// slots grows by append as the shard fills and is never preallocated: a
// booted daemon would otherwise hold every shard's full array before its
// first request (DESIGN §6).
type cacheShard struct {
	mu      sync.Mutex
	entries map[cacheKey]int32 // key → its slot
	slots   []cacheEntry
	head    int32 // most recently used slot; meaningless while slots is empty
}

// touch makes slot i the most recently used.
func (s *cacheShard) touch(i int32) {
	if i == s.head {
		return
	}
	e := &s.slots[i]
	s.slots[e.prev].next = e.next
	s.slots[e.next].prev = e.prev
	s.link(i)
}

// link splices slot i into the ring in front of the head and makes it the
// head; i must not be in the ring.
func (s *cacheShard) link(i int32) {
	h := &s.slots[s.head]
	tail := h.prev
	s.slots[i].prev, s.slots[i].next = tail, s.head
	s.slots[tail].next = i
	h.prev = i
	s.head = i
}

// estCache is the sharded LRU store. Create with newEstCache; a nil
// *estCache stores nothing (the server then never looks anything up).
type estCache struct {
	shards  []*cacheShard
	mask    uint32
	perCap  int      // per-shard entry capacity, >= 1
	keepQ   bool     // entries keep their query (the server has a Feedback hook)
	metrics *Metrics // hit/miss/eviction counters
}

func newEstCache(cfg CacheConfig, m *Metrics, keepQ bool) *estCache {
	if cfg.Entries <= 0 {
		return nil
	}
	c := &estCache{
		shards:  make([]*cacheShard, cacheShards),
		mask:    cacheShards - 1,
		perCap:  (cfg.Entries + cacheShards - 1) / cacheShards,
		keepQ:   keepQ,
		metrics: m,
	}
	for i := range c.shards {
		c.shards[i] = &cacheShard{entries: make(map[cacheKey]int32)}
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
// parsed the text, and count the miss in put once it has turned out to be a
// query and been estimated.
func (c *estCache) lookup(key cacheKey) (EstResult, *sqlparse.Query, bool) {
	s := c.shard(key)
	s.mu.Lock()
	if i, ok := s.entries[key]; ok {
		s.touch(i)
		res, q := s.slots[i].res, s.slots[i].q
		s.mu.Unlock()
		c.metrics.cacheHits.Add(1)
		return res, q, true
	}
	s.mu.Unlock()
	return EstResult{}, nil, false
}

// put records a miss the caller has just estimated: it counts the miss and
// stores res with the query to hand its hits. A degraded result — a fallback
// the next request may not need — is counted and dropped; the chain's answers
// are always finite and >= 1. A nil cache counts and stores nothing.
func (c *estCache) put(key cacheKey, res EstResult, q *sqlparse.Query) {
	if c == nil {
		return
	}
	c.metrics.cacheMisses.Add(1)
	if res.Degraded {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	c.insertLocked(s, key, res, q)
	s.mu.Unlock()
}

// insertLocked adds or refreshes key under s.mu as the shard's most recently
// used entry; a new key in a full shard takes over the least recently used
// slot. This is the one place that decides whether an entry keeps its query.
func (c *estCache) insertLocked(s *cacheShard, key cacheKey, res EstResult, q *sqlparse.Query) {
	if !c.keepQ {
		q = nil
	}
	if i, ok := s.entries[key]; ok {
		s.slots[i].res, s.slots[i].q = res, q
		s.touch(i)
		return
	}
	if len(s.slots) < c.perCap {
		i := int32(len(s.slots))
		s.slots = append(s.slots, cacheEntry{key: key, res: res, q: q, prev: i, next: i})
		if i == 0 {
			s.head = 0
		} else {
			s.link(i)
		}
		s.entries[key] = i
		return
	}
	// The tail is the head's predecessor in the ring, so making it the head
	// is all the relinking an eviction needs.
	tail := s.slots[s.head].prev
	e := &s.slots[tail]
	delete(s.entries, e.key)
	e.key, e.res, e.q = key, res, q
	s.entries[key] = tail
	s.head = tail
	c.metrics.cacheEvictions.Add(1)
}

// len reports the cached entry count across shards (tests and status).
func (c *estCache) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.slots)
		s.mu.Unlock()
	}
	return n
}
