// Package sigcache provides the small concurrency-safe LRU used to memoize
// ECDSA recovery results on the runtime-verification hot path. Its one
// user is the core package's token-signer cache (core/tokencache.go),
// which maps signing digest ‖ signature to the recovered token signer. An
// ecrecover costs hundreds of microseconds even on the wNAF/GLV fast path;
// a hit costs one map lookup, and no allocation: the key is a fixed-size
// array (SigKey).
package sigcache

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// Cache is a fixed-capacity LRU from keys of type K to values of type V.
// All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu     sync.Mutex
	cap    int
	order  *list.List // front = most recently used
	items  map[K]*list.Element
	hits   atomic.Uint64
	misses atomic.Uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New creates a cache holding at most capacity entries (minimum 1).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[K]*list.Element, capacity),
	}
}

// SigLength is the length of the r ‖ s ‖ v signatures Key accepts.
const SigLength = 65

// SigKey is the cache key of a signature over a digest: digest ‖
// signature, a comparable array, so building one and looking it up
// allocate nothing.
type SigKey [32 + SigLength]byte

// Key builds the canonical cache key for a 65-byte signature over a
// digest. It panics on a signature of any other length.
func Key(digest [32]byte, sig []byte) SigKey {
	if len(sig) != SigLength {
		panic(fmt.Sprintf("sigcache: signature of %d bytes, want %d", len(sig), SigLength))
	}
	var k SigKey
	copy(k[:32], digest[:])
	copy(k[32:], sig)
	return k
}

// Get looks up key, promoting it to most recently used on a hit.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if ok {
		c.order.MoveToFront(el)
		val := el.Value.(*entry[K, V]).val
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
func (c *Cache[K, V]) Add(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.items, oldest.Value.(*entry[K, V]).key)
		}
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
}

// Len returns the current number of entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Purge empties the cache and resets the hit/miss counters.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	c.order.Init()
	c.items = make(map[K]*list.Element, c.cap)
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache[K, V]) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
