package lru

import (
	"testing"

	"dsgl/internal/alloctest"
)

func k(s string) []byte { return []byte(s) }

func TestGetMiss(t *testing.T) {
	c := New[int](2)
	if v, ok := c.Get(k("a")); ok || v != 0 {
		t.Fatalf("empty cache returned (%v, %v)", v, ok)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
}

func TestAddGetOverwrite(t *testing.T) {
	c := New[int](2)
	if evicted := c.Add(k("a"), 1); evicted {
		t.Fatal("first Add evicted")
	}
	if v, ok := c.Get(k("a")); !ok || v != 1 {
		t.Fatalf("Get(a) = (%v, %v), want (1, true)", v, ok)
	}
	if evicted := c.Add(k("a"), 2); evicted {
		t.Fatal("overwrite evicted")
	}
	if v, _ := c.Get(k("a")); v != 2 {
		t.Fatalf("overwrite lost: got %v", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[int](2)
	c.Add(k("a"), 1)
	c.Add(k("b"), 2)
	// Touch "a" so "b" is now the LRU entry.
	c.Get(k("a"))
	if evicted := c.Add(k("c"), 3); !evicted {
		t.Fatal("Add over capacity must evict")
	}
	if c.Contains(k("b")) {
		t.Fatal("LRU entry b should have been evicted")
	}
	if !c.Contains(k("a")) || !c.Contains(k("c")) {
		t.Fatal("recently used entries lost")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestEvictionOrderWithoutTouches(t *testing.T) {
	c := New[int](3)
	for i, key := range []string{"a", "b", "c", "d", "e"} {
		c.Add(k(key), i)
	}
	// Insert order is the recency order; only the last 3 survive.
	for _, key := range []string{"a", "b"} {
		if c.Contains(k(key)) {
			t.Fatalf("%q should have been evicted", key)
		}
	}
	for _, key := range []string{"c", "d", "e"} {
		if !c.Contains(k(key)) {
			t.Fatalf("%q should be cached", key)
		}
	}
}

func TestCapacityOneAndNormalization(t *testing.T) {
	for _, capIn := range []int{1, 0, -5} {
		c := New[string](capIn)
		if c.Cap() != 1 {
			t.Fatalf("Cap(%d) = %d, want 1", capIn, c.Cap())
		}
		c.Add(k("a"), "A")
		c.Add(k("b"), "B")
		if c.Contains(k("a")) || !c.Contains(k("b")) || c.Len() != 1 {
			t.Fatalf("capacity-1 cache state wrong: len=%d", c.Len())
		}
		// Evict down to empty tail handling: overwrite survivor, then roll.
		c.Add(k("b"), "B2")
		c.Add(k("c"), "C")
		if v, ok := c.Get(k("c")); !ok || v != "C" {
			t.Fatalf("Get(c) = (%v, %v)", v, ok)
		}
	}
}

func TestGetDoesNotAllocateOnHit(t *testing.T) {
	c := New[int](4)
	key := k("pattern")
	c.Add(key, 42)
	alloctest.SkipUnderRace(t)
	allocs := alloctest.Count(100, func() {
		if _, ok := c.Get(key); !ok {
			t.Fatal("lost entry")
		}
	})
	if allocs != 0 {
		t.Fatalf("Get allocated %d times in 100 hits, want 0", allocs)
	}
}

func TestEachVisitsMRUFirstWithoutTouching(t *testing.T) {
	c := New[int](3)
	c.Add(k("a"), 1)
	c.Add(k("b"), 2)
	c.Add(k("c"), 3)
	c.Get(k("a")) // a becomes MRU: order a, c, b
	var keys []string
	var vals []int
	c.Each(func(key string, v int) {
		keys = append(keys, key)
		vals = append(vals, v)
	})
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "c" || keys[2] != "b" {
		t.Fatalf("Each order = %v, want [a c b]", keys)
	}
	if vals[0] != 1 || vals[1] != 3 || vals[2] != 2 {
		t.Fatalf("Each vals = %v, want [1 3 2]", vals)
	}
	// Each must not perturb recency: next eviction still removes b.
	c.Add(k("d"), 4)
	if _, ok := c.Get(k("b")); ok {
		t.Fatal("Each changed recency: b should have been evicted")
	}
	if _, ok := c.Get(k("c")); !ok {
		t.Fatal("c should still be resident")
	}
}
