// Package cache provides a small, thread-safe, bounded LRU map. It backs
// the result cache of the flownetd query service (internal/server): query
// handlers see one immutable network version per request (identified by
// its generation), so a (network, generation, query) triple always
// produces the same answer and memoizing it turns repeated queries into
// O(1) lookups. When a network changes, the server sweeps with Rekey:
// entries provably unaffected by the change are moved to the new
// generation's keys and keep serving hits, the rest are dropped.
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
// of zero or less disables it entirely — Get always misses and Put is a
// no-op — so callers need no special-casing for the "caching off" path.
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

// Get returns the value stored under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	var zero V
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		c.misses++
		return zero, false
	}
	el, ok := c.items[k]
	if !ok {
		c.misses++
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
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

// Rekey visits every entry, letting fn move it to a new key or drop it:
// fn returns the key the entry should live under (the same key to leave it
// alone) and whether to keep it at all. LRU order is preserved — a re-keyed
// entry keeps its recency position. It returns how many entries were moved
// to a new key and how many were removed.
//
// Rekey is the delta-aware invalidation hook: flownetd tags cache keys with
// the network generation, and after an ingest it re-keys entries whose
// recorded read footprint is disjoint from the ingested delta to the new
// generation (keeping them reachable) while dropping only the possibly
// affected ones. If fn maps an entry onto a key that already exists, the
// visited entry is removed and the existing one kept — in the flownetd use
// the two are byte-identical answers, so nothing of value is lost.
//
// fn must not call back into the cache. Entries inserted into newly freed
// keys by fn are visited at most once (the traversal walks the recency
// list snapshot-free but never revisits an element).
func (c *Cache[K, V]) Rekey(fn func(K, V) (K, bool)) (rekeyed, removed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		return 0, 0
	}
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*entry[K, V])
		newKey, keep := fn(ent.key, ent.val)
		switch {
		case !keep:
			c.ll.Remove(el)
			delete(c.items, ent.key)
			removed++
		case newKey != ent.key:
			if _, taken := c.items[newKey]; taken {
				c.ll.Remove(el)
				delete(c.items, ent.key)
				removed++
				break
			}
			delete(c.items, ent.key)
			ent.key = newKey
			c.items[newKey] = el
			rekeyed++
		}
		el = next
	}
	return rekeyed, removed
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		return 0
	}
	return c.ll.Len()
}

// Stats returns a snapshot of the hit/miss/eviction counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Capacity:  c.capacity,
	}
	if c.capacity > 0 {
		s.Len = c.ll.Len()
	}
	return s
}
