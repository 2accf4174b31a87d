// Package cache provides a small, thread-safe, bounded LRU map. It backs
// the result cache of the flownetd query service (internal/server): query
// handlers see one immutable network version per request (identified by
// its generation), so a (network, generation, query) triple always
// produces the same answer and memoizing it turns repeated queries into
// O(1) lookups. Keys name the network and the query only: whether a stored
// answer still holds at the reader's generation is for the predicate the
// server hands Get to say, so nothing walks the cache when a network changes.
package cache

import (
	"container/list"
	"sync"
)

// Stats is a point-in-time snapshot of a cache's effectiveness counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Len       int    `json:"len"`
	Capacity  int    `json:"capacity"`
}

// Cache is a bounded LRU from K to V, safe for concurrent use. A capacity
// of zero or less disables it entirely — ll and items stay nil, Get always
// misses and Put is a no-op — so callers need no special-casing for the
// "caching off" path.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used; values are *entry[K, V]
	items     map[K]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New creates a cache holding at most capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{capacity: capacity}
	if capacity > 0 {
		c.ll = list.New()
		c.items = make(map[K]*list.Element, capacity)
	}
	return c
}

// Get returns the value stored under k and marks it most recently used,
// provided fresh accepts it. A refused value is a miss and stays where it
// is, recency included: the caller's recompute replaces it with Put. fresh
// runs under the cache's lock and must not call back into the cache.
func (c *Cache[K, V]) Get(k K, fresh func(V) bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok && fresh(el.Value.(*entry[K, V]).val) {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put inserts or refreshes k -> v, evicting the least recently used entry
// when the cache is full.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		return
	}
	if el, ok := c.items[k]; ok {
		el.Value.(*entry[K, V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
		c.evictions++
	}
	c.items[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v})
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats returns a snapshot of the hit/miss/eviction counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Len:       len(c.items),
		Capacity:  c.capacity,
	}
}
