// Package alloctest counts heap allocations exactly, for tests that hold a
// code path to a fixed allocation budget.
package alloctest

import (
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"
)

// Count calls f once to warm up, then runs more times, and returns how many
// heap allocations those runs made in total. testing.AllocsPerRun divides
// that total by the run count in integers, so it reads up to runs-1 stray
// allocations as none; Count drops none of f's. Like AllocsPerRun, it holds
// GOMAXPROCS at 1 while it counts.
//
// AllocsPerRun reads runtime.MemStats.Mallocs, which also counts the
// runtime's own allocations on its background goroutines, such as a
// garbage-collection worker's sudog or the scavenger's growing timer heap,
// and those land in a counted window in a few runs in a hundred. Count
// counts what Mallocs counts less those. Mallocs is the allocations the
// heap profile records at runtime.MemProfileRate = 1 plus the tiny ones
// (pointer-free, under 16 bytes) that fit the current tiny block, which
// the profile does not see. So the runs are profiled at rate 1, and Count
// adds the profile's allocations whose recorded stacks pass through the
// call to f, or are cut off at the profile's 32 frames before reaching it,
// to every tiny-block allocation in the window. The runtime's background
// allocations hold pointers, so they are never tiny. Allocations other
// than tiny ones on goroutines that f starts are not counted.
func Count(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	before := counted()
	profileRuns(runs, f)
	return counted() - before
}

// profileRuns runs f under call with every allocation profiled, and
// restores the profile rate even when f stops the goroutine (t.Fatal).
func profileRuns(runs int, f func()) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	for i := 0; i < runs; i++ {
		call(f)
	}
}

// call runs f under a frame Count can find in allocation stacks.
//
//go:noinline
func call(f func()) { f() }

// callName is call's function name in stack frames.
var callName = runtime.FuncForPC(reflect.ValueOf(call).Pointer()).Name()

// tinyAllocs is the runtime metric that counts the allocations packed into
// a tiny block that was already started.
const tinyAllocs = "/gc/heap/tiny/allocs:objects"

func init() {
	// The first metrics.Read builds the runtime's metrics table; reading
	// here keeps its allocations out of Count's first window.
	metrics.Read([]metrics.Sample{{Name: tinyAllocs}})
}

// counted returns the allocations Count attributes to f so far: the tiny
// allocations that fit a block, plus the heap profile's allocations whose
// stacks pass through call or fill all 32 frames a record keeps. One
// runtime.GC publishes every allocation made before it, and flushes each
// P's tiny count into the total that metrics reads; the second covers a
// background cycle that started first.
func counted() uint64 {
	runtime.GC()
	runtime.GC()
	tiny := []metrics.Sample{{Name: tinyAllocs}}
	metrics.Read(tiny)
	sum := tiny[0].Value.Uint64()
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+16)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	for _, r := range recs[:n] {
		if stk := r.Stack(); len(stk) == len(r.Stack0) || passesThroughCall(stk) {
			sum += uint64(r.AllocObjects)
		}
	}
	return sum
}

func passesThroughCall(stk []uintptr) bool {
	frames := runtime.CallersFrames(stk)
	for {
		fr, more := frames.Next()
		if fr.Function == callName {
			return true
		}
		if !more {
			return false
		}
	}
}

// SkipUnderRace skips the rest of t in a -race build: exact counts are
// pinned for plain builds, which a plain go test checks, and -race runs saw
// the runtime's own allocations (new Ms, goroutine stacks, timers) in
// counted windows. Call it just before a test's exact-count assertions,
// after the checks that hold in every build.
func SkipUnderRace(t testing.TB) {
	t.Helper()
	if raceBuild {
		t.Skip("exact allocation counts are checked only without -race: -race runs saw the runtime's own allocations (new Ms, goroutine stacks, timers) in counted windows")
	}
}
