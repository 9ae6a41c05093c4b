// Package alloctest counts heap allocations exactly, for tests that hold a
// code path to a fixed allocation budget.
package alloctest

import "runtime"

// Count calls f once to warm up, then runs more times, and returns how many
// heap allocations those runs made in total. testing.AllocsPerRun divides
// that total by the run count in integers, so it reads up to runs-1 stray
// allocations as none; Count drops nothing. Like AllocsPerRun, it holds
// GOMAXPROCS at 1 while it counts.
func Count(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
