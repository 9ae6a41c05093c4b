package engine

import (
	"sync"
	"sync/atomic"

	"dsgl/internal/lru"
)

// This file holds the engine machinery that every dynamical-system driver
// shares, regardless of what its "plan" is: the regression Engine splits
// its coupling list against clamp bitmasks, the OptEngine evaluates
// annealing schedules into ladders, and both resolve them through the same
// bounded-LRU / lock-free-snapshot / per-key-singleflight cache and
// recycle their per-worker scratch states through the same bounded
// free-list. Extracting the cache and the free-list (rather than
// mirroring them into opt.go the way PR 3 found them mirrored across
// scalable and dspu) keeps the concurrency discipline — and its counters'
// determinism guarantee — in exactly one place.

// planCall is an in-flight plan compilation other resolvers of the same
// key wait on instead of compiling again (per-key singleflight).
type planCall[P any] struct {
	done chan struct{} // closed once pl is published
	pl   P
}

// planCache is the cache of compiled plans of type P that the inference
// and optimization engines share: a bounded LRU behind a lock-free read
// snapshot, with compilation running outside the lock under per-key
// singleflight. The zero value is ready to use (the LRU is allocated
// lazily at PlanCacheCapacity). Hit/miss counters stay deterministic for a fixed
// call sequence: a key's first resolution is the one miss, every other
// resolution — snapshot hit, LRU hit, or singleflight wait — is a hit,
// regardless of worker interleaving.
type planCache[P any] struct {
	// mu guards the bounded LRU, the in-flight compile table, and snapshot
	// publication — but never a compile: resolve registers an in-flight
	// call, releases the lock, compiles, and re-locks only to insert and
	// republish. Warm lookups bypass the lock entirely via snap, an
	// immutable map snapshot of the resident entries rebuilt (O(capacity))
	// on every insert or eviction.
	mu       sync.Mutex
	lru      *lru.Cache[P]
	inflight map[string]*planCall[P]
	snap     atomic.Pointer[map[string]P]

	hits, misses atomic.Uint64
}

// resolve returns the plan for key, compiling it at most once per
// residency, and records into the owning engine's plan-cache instruments
// (nil instruments, observability disabled, are no-ops). compile runs
// unlocked; concurrent resolvers of one missing key wait on the single
// in-flight compile (counted as hits — the key is compiled once), while
// compiles of different keys proceed concurrently.
func (c *planCache[P]) resolve(key []byte, compile func() P, m *sharedObs) P {
	if snap := c.snap.Load(); snap != nil {
		if pl, ok := (*snap)[string(key)]; ok {
			c.hits.Add(1)
			m.planHits.Inc()
			// Refresh recency when the lock is free; skipping under
			// contention only costs eviction-order fidelity, never
			// correctness.
			if c.mu.TryLock() {
				if c.lru != nil {
					c.lru.Get(key)
				}
				c.mu.Unlock()
			}
			return pl
		}
	}
	c.mu.Lock()
	if c.lru == nil {
		// Lazy: engines built as bare literals in tests never populate it.
		c.lru = lru.New[P](PlanCacheCapacity)
		c.inflight = make(map[string]*planCall[P])
	}
	if pl, ok := c.lru.Get(key); ok {
		c.mu.Unlock()
		c.hits.Add(1)
		m.planHits.Inc()
		return pl
	}
	if call, ok := c.inflight[string(key)]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		m.planHits.Inc()
		m.planSingleflightWaits.Inc()
		<-call.done
		return call.pl
	}
	call := &planCall[P]{done: make(chan struct{})}
	ks := string(key)
	c.inflight[ks] = call
	c.mu.Unlock()

	c.misses.Add(1)
	m.planMisses.Inc()
	call.pl = compile()

	c.mu.Lock()
	if c.lru.Add(key, call.pl) {
		m.planEvictions.Inc()
	}
	delete(c.inflight, ks)
	c.publishSnapshotLocked()
	m.planResident.Set(float64(c.lru.Len()))
	c.mu.Unlock()
	close(call.done)
	return call.pl
}

// peek returns the resident plan for key without compiling, without
// counters, and without a recency bump — the streaming delta-compiler's
// predecessor lookup.
func (c *planCache[P]) peek(key []byte) (pl P, ok bool) {
	if snap := c.snap.Load(); snap != nil {
		pl, ok = (*snap)[string(key)]
	}
	return pl, ok
}

// publishSnapshotLocked rebuilds the lock-free read snapshot from the LRU.
// Caller holds mu.
func (c *planCache[P]) publishSnapshotLocked() {
	snap := make(map[string]P, c.lru.Len())
	c.lru.Each(func(k string, v P) { snap[k] = v })
	c.snap.Store(&snap)
}

// stats reports the cumulative hit and miss counts.
func (c *planCache[P]) stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// resident reports how many compiled plans are currently cached.
func (c *planCache[P]) resident() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru == nil {
		return 0
	}
	return c.lru.Len()
}

// freeList is the bounded scratch-state free-list shared by the inference
// and optimization engines: batch fan-outs draw one state per worker and
// return them afterwards, so repeated batches stop re-allocating per-worker
// arenas. Reuse is safe because every run fully re-seeds the state.
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
}

// maxPooledStates bounds each engine's free-list: enough for any realistic
// worker count, small enough that an unusually wide one-off batch cannot
// pin its arenas forever.
const maxPooledStates = 32

// get pops a pooled state, reporting whether one was available.
func (f *freeList[T]) get() (v T, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.items)
	if n == 0 {
		return v, false
	}
	v = f.items[n-1]
	var zero T
	f.items[n-1] = zero
	f.items = f.items[:n-1]
	return v, true
}

// put returns a state to the free-list, dropping it when the list is full.
func (f *freeList[T]) put(v T) {
	f.mu.Lock()
	if len(f.items) < maxPooledStates {
		f.items = append(f.items, v)
	}
	f.mu.Unlock()
}
