package cache

import (
	"fmt"
	"sync"
	"testing"
)

// fresh and stale are Get predicates that accept and refuse any value.
func fresh(int) bool { return true }
func stale(int) bool { return false }

func TestHitAndMiss(t *testing.T) {
	c := New[string, int](4)
	if _, ok := c.Get("a", fresh); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", 1)
	v, ok := c.Get("a", fresh)
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
	// Touch 1 so that 2 becomes the LRU entry — a refused lookup of 2 does
	// not make it recent again — then overflow.
	if _, ok := c.Get(1, fresh); !ok {
		t.Fatal("expected hit on 1")
	}
	if _, ok := c.Get(2, stale); ok {
		t.Fatal("refused entry reported a hit")
	}
	c.Put(3, 30)
	if _, ok := c.Get(2, fresh); ok {
		t.Fatal("2 should have been evicted (least recently used)")
	}
	if _, ok := c.Get(1, fresh); !ok {
		t.Fatal("1 should have survived (recently used)")
	}
	if _, ok := c.Get(3, fresh); !ok {
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
	if v, _ := c.Get("a", fresh); v != 3 {
		t.Fatalf("Get(a) = %d; want the refreshed value 3", v)
	}
}

func TestDisabledCache(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := New[string, int](capacity)
		c.Put("a", 1)
		asked := false
		if _, ok := c.Get("a", func(int) bool { asked = true; return true }); ok || asked {
			t.Fatalf("capacity %d: disabled cache returned a hit (%v) or judged a value it cannot hold (%v)", capacity, ok, asked)
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
				if v, ok := c.Get(k, fresh); ok && v != k {
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

// TestRefusedEntryCountsAsMissAndStaysPut: a value the caller's predicate
// refuses is a miss in the counters (the hit ratio is read from them), and
// is neither removed nor moved — the caller's Put overwrites it in place,
// with no eviction.
func TestRefusedEntryCountsAsMissAndStaysPut(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	var judged int
	if v, ok := c.Get("a", func(v int) bool { judged = v; return false }); ok || v != 0 {
		t.Fatalf("refused Get(a) = %d, %v; want the zero value and a miss", v, ok)
	}
	if judged != 1 {
		t.Fatalf("the predicate was shown %d, want the stored 1", judged)
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 1 || s.Evictions != 0 || s.Len != 2 {
		t.Fatalf("after a refused lookup: %+v, want one miss and both entries kept", s)
	}
	c.Put("a", 3)
	if s := c.Stats(); s.Evictions != 0 || s.Len != 2 {
		t.Fatalf("overwriting the refused entry: %+v, want no eviction", s)
	}
	if v, ok := c.Get("a", fresh); !ok || v != 3 {
		t.Fatalf("Get(a) after the overwrite = %d, %v; want 3, true", v, ok)
	}
	if v, ok := c.Get("b", fresh); !ok || v != 2 {
		t.Fatalf("Get(b) = %d, %v; want the untouched 2, true", v, ok)
	}
}
