package cache

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestHitAndMiss(t *testing.T) {
	c := New[string, int](4)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", 1)
	v, ok := c.Get("a")
	if !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Evictions != 0 || s.Len != 1 || s.Capacity != 4 {
		t.Fatalf("unexpected stats %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 10)
	c.Put(2, 20)
	// Touch 1 so that 2 becomes the LRU entry, then overflow.
	if _, ok := c.Get(1); !ok {
		t.Fatal("expected hit on 1")
	}
	c.Put(3, 30)
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted (least recently used)")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("1 should have survived (recently used)")
	}
	if _, ok := c.Get(3); !ok {
		t.Fatal("3 should be present")
	}
	if s := c.Stats(); s.Evictions != 1 || s.Len != 2 {
		t.Fatalf("unexpected stats %+v", s)
	}
}

func TestPutRefreshesExisting(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 3) // refresh, not insert: no eviction
	if s := c.Stats(); s.Evictions != 0 || s.Len != 2 {
		t.Fatalf("unexpected stats %+v", s)
	}
	if v, _ := c.Get("a"); v != 3 {
		t.Fatalf("Get(a) = %d; want the refreshed value 3", v)
	}
}

func TestDisabledCache(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := New[string, int](capacity)
		c.Put("a", 1)
		if _, ok := c.Get("a"); ok {
			t.Fatalf("capacity %d: disabled cache returned a hit", capacity)
		}
		if c.Len() != 0 {
			t.Fatalf("capacity %d: Len = %d; want 0", capacity, c.Len())
		}
		if s := c.Stats(); s.Misses != 1 || s.Hits != 0 {
			t.Fatalf("capacity %d: unexpected stats %+v", capacity, s)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int, int](64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (w*31 + i) % 100
				c.Put(k, k)
				if v, ok := c.Get(k); ok && v != k {
					panic(fmt.Sprintf("corrupted value %d under key %d", v, k))
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("cache exceeded its bound: %d entries", c.Len())
	}
}

func TestRekey(t *testing.T) {
	c := New[string, int](8)
	for _, k := range []string{"a|g1|x", "a|g1|y", "b|g1|x"} {
		c.Put(k, len(k))
	}
	// Move network a's entries from generation 1 to generation 2, drop b's.
	rekeyed, removed := c.Rekey(func(k string, _ int) (string, bool) {
		if strings.HasPrefix(k, "b|") {
			return k, false
		}
		return strings.Replace(k, "|g1|", "|g2|", 1), true
	})
	if rekeyed != 2 || removed != 1 {
		t.Fatalf("Rekey = (%d, %d), want (2, 1)", rekeyed, removed)
	}
	for _, k := range []string{"a|g2|x", "a|g2|y"} {
		if v, ok := c.Get(k); !ok || v != len(k) {
			t.Errorf("re-keyed entry %q: got %d, %v", k, v, ok)
		}
	}
	for _, k := range []string{"a|g1|x", "a|g1|y", "b|g1|x"} {
		if _, ok := c.Get(k); ok {
			t.Errorf("old key %q still present", k)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d after Rekey, want 2", c.Len())
	}
	if got := c.Stats().Evictions; got != 0 {
		t.Errorf("Rekey counted %d evictions, want 0", got)
	}
}

func TestRekeyCollisionKeepsExisting(t *testing.T) {
	c := New[string, int](8)
	c.Put("old", 1)
	c.Put("new", 2)
	rekeyed, removed := c.Rekey(func(k string, _ int) (string, bool) {
		if k == "old" {
			return "new", true // collides with the existing entry
		}
		return k, true
	})
	if rekeyed != 0 || removed != 1 {
		t.Fatalf("Rekey = (%d, %d), want (0, 1)", rekeyed, removed)
	}
	if v, ok := c.Get("new"); !ok || v != 2 {
		t.Fatalf("collision target = %d, %v; want the pre-existing 2, true", v, ok)
	}
	if _, ok := c.Get("old"); ok {
		t.Fatal("colliding entry survived under its old key")
	}
}

func TestRekeyPreservesLRUOrder(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 10)
	c.Put(2, 20) // recency: 2 (front), 1 (back)
	c.Rekey(func(k, _ int) (int, bool) { return k + 100, true })
	// 101 is still the LRU entry: inserting a third key must evict it.
	c.Put(3, 30)
	if _, ok := c.Get(101); ok {
		t.Fatal("101 should have been evicted (it was least recently used before the rekey)")
	}
	if _, ok := c.Get(102); !ok {
		t.Fatal("102 should have survived the eviction")
	}
}

func TestRekeyDisabledCache(t *testing.T) {
	c := New[string, int](0)
	c.Put("a", 1)
	if rekeyed, removed := c.Rekey(func(k string, _ int) (string, bool) { return k, false }); rekeyed != 0 || removed != 0 {
		t.Fatalf("Rekey on disabled cache = (%d, %d), want (0, 0)", rekeyed, removed)
	}
}
