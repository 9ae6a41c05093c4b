package engine

import (
	"sync"
	"sync/atomic"
)

// This file holds the regression Engine's clamp-plan cache — a bounded,
// most-recently-used-first list with per-key singleflight — and the
// bounded free-list through which both engines recycle their per-worker
// scratch states, so the concurrency discipline, and the determinism of
// the cache's counters, live in one place.

// planEntry is one cached plan. It joins the cache when its compile
// starts; done is closed once pl is set, and resolvers of the same key
// wait on it instead of compiling again (per-key singleflight).
type planEntry[P any] struct {
	key  string
	pl   P
	done chan struct{}
}

// planCache is the cache of compiled plans of type P: at most
// PlanCacheCapacity entries in one slice, most recently used first, with
// compilation running outside the lock. The zero value is ready to use.
// Hit/miss counters stay deterministic for a fixed call sequence: a key's
// first resolution is the one miss, every other resolution — of a finished
// plan or one still compiling — is a hit, regardless of worker
// interleaving.
type planCache[P any] struct {
	// mu guards entries but never a compile: a miss puts its entry at the
	// front, releases the lock, then compiles.
	mu      sync.Mutex
	entries []*planEntry[P]

	hits, misses atomic.Uint64
}

// resolve returns the plan for key, compiling it at most once per
// residency, and records into the engine's plan-cache instruments (nil
// instruments, observability disabled, are no-ops). Every hit moves
// its entry to the front. compile runs unlocked; concurrent resolvers of
// one missing key wait on the single in-flight compile (counted as hits —
// the key is compiled once), while compiles of different keys proceed
// concurrently. A key evicted while it still compiles is compiled again by
// the next resolver that misses it; resolvers already waiting on it get
// the first plan.
func (c *planCache[P]) resolve(key []byte, compile func() P, m *engineObs) P {
	c.mu.Lock()
	for i, e := range c.entries {
		if e.key != string(key) {
			continue
		}
		copy(c.entries[1:i+1], c.entries[:i])
		c.entries[0] = e
		c.mu.Unlock()
		c.hits.Add(1)
		m.planHits.Inc()
		select {
		case <-e.done:
		default:
			m.planSingleflightWaits.Inc()
			<-e.done
		}
		return e.pl
	}
	e := &planEntry[P]{key: string(key), done: make(chan struct{})}
	if len(c.entries) < PlanCacheCapacity {
		c.entries = append(c.entries, nil)
	} else {
		m.planEvictions.Inc()
	}
	copy(c.entries[1:], c.entries)
	c.entries[0] = e
	m.planResident.Set(float64(len(c.entries)))
	c.mu.Unlock()

	c.misses.Add(1)
	m.planMisses.Inc()
	e.pl = compile()
	close(e.done)
	return e.pl
}

// stats reports the cumulative hit and miss counts.
func (c *planCache[P]) stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// resident reports how many plans are currently cached, counting a plan
// from the start of its compile.
func (c *planCache[P]) resident() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
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
