package serve

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

// cacheKey identifies a /v1/predict request by the SHA-256 of its body
// bytes, truncated to 128 bits. Hashing the bytes as received means a
// lookup needs no JSON work; the price is that two differently formatted
// bodies of the same request occupy two entries (each is computed once
// and both answers are equal).
type cacheKey [16]byte

func newCacheKey(body []byte) cacheKey {
	sum := sha256.Sum256(body)
	return cacheKey(sum[:16])
}

// lruCache is a bounded, thread-safe LRU cache mapping request bodies
// to the encoded 200 response they were answered with. Predictions are
// pure functions of (query, cluster, placement) and model weights, so
// entries never go stale while the server runs one model.
type lruCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry struct {
	key  cacheKey
	body []byte
}

// newLRUCache returns a cache holding at most max entries; max <= 0
// returns nil (caching disabled — all lruCache methods tolerate nil).
func newLRUCache(max int) *lruCache {
	if max <= 0 {
		return nil
	}
	return &lruCache{max: max, ll: list.New(), items: make(map[cacheKey]*list.Element)}
}

// get returns the response body stored under key, marking the entry most
// recently used. The slice is shared with the cache and must not be
// modified. The hit/miss counters feed costream_serve_cache_ops_total.
func (c *lruCache) get(key cacheKey) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// add stores body under key, evicting the least recently used entry
// when full. The cache keeps body; the caller must not modify it after.
func (c *lruCache) add(key cacheKey, body []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).body = body
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// len returns the current entry count.
func (c *lruCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// capacity returns the configured maximum entry count.
func (c *lruCache) capacity() int {
	if c == nil {
		return 0
	}
	return c.max
}

// counters returns the accumulated hit, miss and eviction counts.
func (c *lruCache) counters() (hits, misses, evictions int64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
