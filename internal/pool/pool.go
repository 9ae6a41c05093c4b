// Package pool is the worker-pool primitive shared by the batch-inference
// engine (engine.Engine.RunBatch), the top-level parallel evaluator
// (dsgl.Model.EvaluateParallel), the ridge-lambda selection grid, and the
// experiment sweeps of internal/experiments.
//
// The pool hands item indices to workers atomically (work stealing), so the
// assignment of items to workers is scheduling-dependent. Callers must make
// each item's outcome a pure function of its index — the inference engine
// derives per-window seeds as Seed + windowIndex for exactly this reason,
// which keeps parallel results bit-identical to a sequential loop over the
// same items.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers normalizes a requested worker count: n > 0 is used as-is; any
// other value selects runtime.GOMAXPROCS(0), the number of OS threads the
// Go scheduler will actually run concurrently.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Clamp returns the effective pool size for n items with the requested
// worker count: Workers(workers) bounded above by n and below by 1.
func Clamp(workers, n int) int {
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes fn(i) for every i in [0, n) using at most workers
// goroutines (workers <= 0 selects GOMAXPROCS). With one worker it runs
// inline on the calling goroutine, so sequential callers pay no
// synchronization cost.
func Run(workers, n int, fn func(i int)) {
	RunWorkers(Clamp(workers, n), n, func(_, i int) { fn(i) })
}

// RunErr is Run for item functions that can fail. Every item is still
// visited (no early cancellation — items are cheap and independent); the
// first error in item order is returned, matching what a sequential loop
// that aborts on error would have surfaced for deterministic item
// functions.
func RunErr(workers, n int, fn func(i int) error) error {
	return RunWorkersErr(Clamp(workers, n), n, func(_, i int) error { return fn(i) })
}

// RunWorkersErr is RunWorkers for item functions that can fail, returning
// what RunErr returns: every item is visited and the first error in item
// order comes back.
func RunWorkersErr(workers, n int, fn func(worker, i int) error) error {
	if n == 0 {
		return nil
	}
	errs := make([]error, n)
	RunWorkers(workers, n, func(worker, i int) { errs[i] = fn(worker, i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunWorkers is the core loop: it spawns exactly workers goroutines (the
// caller normalizes the count, typically via Clamp) and passes each
// invocation the worker's index in [0, workers) alongside the item index.
// The worker index lets callers give every worker a private scratch arena
// — the zero-allocation inference states of engine.Engine.RunBatch —
// without any locking.
func RunWorkers(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	// Observability: per-run counters plus queue depth and worker
	// utilization, wrapped around the item function only when a registry
	// is installed — the disabled path is the bare work-stealing loop.
	pm := metrics()
	var busyNs atomic.Int64
	var runStart time.Time
	if pm.enabled() {
		pm.runs.Inc()
		pm.items.Add(uint64(n))
		pm.workers.Set(float64(workers))
		pm.queueDepth.Set(float64(n))
		runStart = time.Now()
		inner := fn
		fn = func(worker, i int) {
			// i was just claimed; n-1-i items remain unclaimed under the
			// monotone index hand-out.
			pm.queueDepth.Set(float64(n - 1 - i))
			t0 := time.Now()
			inner(worker, i)
			busyNs.Add(int64(time.Since(t0)))
		}
		defer func() {
			pm.queueDepth.Set(0)
			if wall := time.Since(runStart); wall > 0 {
				pm.utilization.Set(float64(busyNs.Load()) / (float64(workers) * float64(wall)))
			}
		}()
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
}
