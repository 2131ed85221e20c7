// Package sigcache provides the small concurrency-safe LRU used to memoize
// ECDSA recovery results on the runtime-verification hot path. Its one
// user is the core package's token-signer cache (core/tokencache.go),
// which maps signing digest ‖ signature to the recovered token signer. An
// ecrecover costs hundreds of microseconds even on the wNAF/GLV fast path;
// a hit costs one map lookup.
package sigcache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Cache is a fixed-capacity LRU from string keys to values of type V. All
// methods are safe for concurrent use.
type Cache[V any] struct {
	mu     sync.Mutex
	cap    int
	order  *list.List // front = most recently used
	items  map[string]*list.Element
	hits   atomic.Uint64
	misses atomic.Uint64
}

type entry[V any] struct {
	key string
	val V
}

// New creates a cache holding at most capacity entries (minimum 1).
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// Key builds the canonical cache key for a signature over a digest.
func Key(digest [32]byte, sig []byte) string {
	b := make([]byte, 0, len(digest)+len(sig))
	b = append(b, digest[:]...)
	b = append(b, sig...)
	return string(b)
}

// Get looks up key, promoting it to most recently used on a hit.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if ok {
		c.order.MoveToFront(el)
		val := el.Value.(*entry[V]).val
		c.mu.Unlock()
		c.hits.Add(1)
		return val, true
	}
	c.mu.Unlock()
	c.misses.Add(1)
	var zero V
	return zero, false
}

// Add inserts or refreshes key, evicting the least recently used entry when
// the cache is full.
func (c *Cache[V]) Add(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.items, oldest.Value.(*entry[V]).key)
		}
	}
	c.items[key] = c.order.PushFront(&entry[V]{key: key, val: val})
}

// Len returns the current number of entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Purge empties the cache and resets the hit/miss counters.
func (c *Cache[V]) Purge() {
	c.mu.Lock()
	c.order.Init()
	c.items = make(map[string]*list.Element, c.cap)
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache[V]) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
