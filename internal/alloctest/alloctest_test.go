package alloctest

import "testing"

var (
	sink    []*[16]byte
	sinkInt *int64
)

// allocAt allocates one escaping object depth frames below its caller.
//
//go:noinline
func allocAt(depth int) {
	if depth > 0 {
		allocAt(depth - 1)
		return
	}
	sink = append(sink[:0], new([16]byte))
}

// allocTiny allocates one escaping 8-byte pointer-free object, which the
// runtime packs into a 16-byte tiny block: only every other run starts a
// block, and only that allocation reaches the heap profile.
//
//go:noinline
func allocTiny() { sinkInt = new(int64) }

// TestCountCountsEveryAllocation: Count sees each allocation of f's call
// tree exactly once per run, both near the call and deeper than the 32
// frames a heap-profile record keeps, and tiny allocations that share a
// block as well as those that start one.
func TestCountCountsEveryAllocation(t *testing.T) {
	sink = make([]*[16]byte, 0, 1)
	SkipUnderRace(t)
	for _, depth := range []int{0, 5, 64} {
		if n := Count(7, func() { allocAt(depth) }); n != 7 {
			t.Errorf("depth %d: counted %d allocations in 7 runs, want 7", depth, n)
		}
	}
	if n := Count(7, allocTiny); n != 7 {
		t.Errorf("tiny: counted %d allocations in 7 runs, want 7", n)
	}
	if n := Count(7, func() {}); n != 0 {
		t.Errorf("empty f: counted %d allocations, want 0", n)
	}
}
