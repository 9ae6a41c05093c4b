package scalable

import (
	"math"
	"strings"
	"testing"

	"dsgl/internal/alloctest"
	"dsgl/internal/engine"
)

// identicalResults compares two Results bit-for-bit: every float field and
// every voltage must carry the same IEEE-754 bit pattern, not merely compare
// equal. This is the strongest form of the plan-naive-identity contract.
// runFresh runs one request on a fresh state of m's engine.
func runFresh(m *Machine, req engine.Request) (*engine.Result, error) {
	return m.Engine().Run(m.Engine().NewInferState(), req)
}

func identicalResults(t *testing.T, label string, plan, naive *engine.Result) {
	t.Helper()
	if len(plan.Voltage) != len(naive.Voltage) {
		t.Fatalf("%s: voltage length %d vs %d", label, len(plan.Voltage), len(naive.Voltage))
	}
	for i := range plan.Voltage {
		if math.Float64bits(plan.Voltage[i]) != math.Float64bits(naive.Voltage[i]) {
			t.Fatalf("%s: voltage[%d] differs: plan %v (%#x) naive %v (%#x)",
				label, i, plan.Voltage[i], math.Float64bits(plan.Voltage[i]),
				naive.Voltage[i], math.Float64bits(naive.Voltage[i]))
		}
	}
	if math.Float64bits(plan.LatencyNs) != math.Float64bits(naive.LatencyNs) {
		t.Fatalf("%s: latency %v vs %v", label, plan.LatencyNs, naive.LatencyNs)
	}
	if math.Float64bits(plan.AnnealNs) != math.Float64bits(naive.AnnealNs) {
		t.Fatalf("%s: anneal time %v vs %v", label, plan.AnnealNs, naive.AnnealNs)
	}
	if math.Float64bits(plan.Energy) != math.Float64bits(naive.Energy) {
		t.Fatalf("%s: energy %v vs %v", label, plan.Energy, naive.Energy)
	}
	if plan.Settled != naive.Settled {
		t.Fatalf("%s: settled %v vs %v", label, plan.Settled, naive.Settled)
	}
	if plan.Switches != naive.Switches {
		t.Fatalf("%s: switches %d vs %d", label, plan.Switches, naive.Switches)
	}
}

// TestInferPlanBitIdentical is the tentpole acceptance test: the clamp-plan
// path must return Results bit-identical to the naive reference loop for
// every mode, seed, and worker count — constant folding reorganizes which
// operations are hoisted out of the loop, never their order or rounding.
func TestInferPlanBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"spatial", Config{Lanes: 30, MaxTimeNs: 2000, Seed: 11}},
		{"temporal", Config{Lanes: 3, MaxTimeNs: 2000, Seed: 11}},
		{"noisy", Config{Lanes: 3, MaxTimeNs: 1000, Seed: 11, NodeNoise: 0.05, CouplerNoise: 0.05}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := batchMachine(t, tc.cfg)
			for _, seed := range []uint64{1, 7, 42, 1 << 40} {
				for _, obs := range [][]engine.Observation{
					{{Index: 0, Value: 0.4}},
					{{Index: 0, Value: 0.4}, {Index: 5, Value: -0.3}, {Index: 11, Value: 0.9}},
					{{Index: 3, Value: -0.2}, {Index: 4, Value: 0.1}, {Index: 8, Value: 0.6}, {Index: 15, Value: -0.7}, {Index: 20, Value: 0.25}},
					{}, // no clamps: everything is dyn
					// A clamped -0 must stay -0 on both paths.
					{{Index: 0, Value: math.Copysign(0, -1)}, {Index: 5, Value: -0.3}},
				} {
					plan, err := m.Engine().InferSeeded(obs, seed)
					if err != nil {
						t.Fatal(err)
					}
					naive, err := runFresh(m, engine.Request{Obs: obs, Seed: seed, Path: engine.Naive})
					if err != nil {
						t.Fatal(err)
					}
					identicalResults(t, tc.name, plan, naive)
				}
			}
		})
	}
}

// TestInferPlanBatchBitIdentical pins the same contract through the batch
// engine: any worker count must reproduce the sequential naive loop bit for
// bit (window w runs with seed Config.Seed + w in both).
func TestInferPlanBatchBitIdentical(t *testing.T) {
	m := batchMachine(t, Config{Lanes: 3, MaxTimeNs: 1500, Seed: 9})
	obs := batchObservations(16, m.N)
	for _, workers := range []int{1, 3, 8} {
		batch, err := m.Engine().InferBatch(obs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range obs {
			naive, err := runFresh(m, engine.Request{Obs: obs[i], Seed: m.Config().Seed + uint64(i), Path: engine.Naive})
			if err != nil {
				t.Fatal(err)
			}
			identicalResults(t, "batch", batch[i], naive)
		}
	}
}

// TestPlanAllClampedAndFullyFree covers the plan compiler's edge patterns:
// every node observed (no free rows at all: the anneal loop has nothing to
// integrate) and, via the empty-observation case above, no node observed.
func TestPlanAllClampedAndFullyFree(t *testing.T) {
	m := batchMachine(t, Config{Lanes: 30, MaxTimeNs: 200, Seed: 5})
	obs := make([]engine.Observation, m.N)
	for i := range obs {
		obs[i] = engine.Observation{Index: i, Value: 0.3 - 0.01*float64(i)}
	}
	plan, err := m.Engine().InferSeeded(obs, 3)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := runFresh(m, engine.Request{Obs: obs, Seed: 3, Path: engine.Naive})
	if err != nil {
		t.Fatal(err)
	}
	identicalResults(t, "all-clamped", plan, naive)
	for i, o := range obs {
		if plan.Voltage[i] != o.Value {
			t.Fatalf("clamped node %d moved: %v != %v", i, plan.Voltage[i], o.Value)
		}
	}
}

// TestPlanCacheHitsAcrossBatch proves the point of keying plans by index
// pattern: a batch whose windows share one observation pattern (different
// values!) compiles exactly one plan and hits the cache for every other
// window, across all workers.
func TestPlanCacheHitsAcrossBatch(t *testing.T) {
	m := batchMachine(t, Config{Lanes: 30, MaxTimeNs: 500, Seed: 3})
	const windows = 24
	obs := make([][]engine.Observation, windows)
	for w := range obs {
		obs[w] = []engine.Observation{
			{Index: 2, Value: 0.5 - 0.02*float64(w)},
			{Index: 9, Value: -0.4 + 0.03*float64(w%5)},
			{Index: 17, Value: 0.1 * float64(w%7)},
		}
	}
	if _, err := m.Engine().InferBatch(obs, 8); err != nil {
		t.Fatal(err)
	}
	hits, misses := m.Engine().PlanCacheStats()
	if misses != 1 {
		t.Fatalf("shared-pattern batch compiled %d plans, want 1", misses)
	}
	if hits != windows-1 {
		t.Fatalf("shared-pattern batch hit %d times, want %d", hits, windows-1)
	}
}

// TestEnsurePlanWarmsCache: pre-compiling via EnsurePlan makes the whole
// batch hit the cache.
func TestEnsurePlanWarmsCache(t *testing.T) {
	m := batchMachine(t, Config{Lanes: 30, MaxTimeNs: 500, Seed: 3})
	obs := []engine.Observation{{Index: 1, Value: 0.2}, {Index: 6, Value: -0.1}}
	if err := m.Engine().EnsurePlan(obs); err != nil {
		t.Fatal(err)
	}
	batch := [][]engine.Observation{obs, obs, obs, obs}
	if _, err := m.Engine().InferBatch(batch, 2); err != nil {
		t.Fatal(err)
	}
	hits, misses := m.Engine().PlanCacheStats()
	if misses != 1 || hits != uint64(len(batch)) {
		t.Fatalf("after EnsurePlan: hits=%d misses=%d, want hits=%d misses=1", hits, misses, len(batch))
	}
	if err := m.Engine().EnsurePlan([]engine.Observation{{Index: -1}}); err == nil {
		t.Fatal("EnsurePlan accepted out-of-range index")
	}
	if err := m.Engine().EnsurePlan([]engine.Observation{{Index: 1}, {Index: 1}}); err == nil {
		t.Fatal("EnsurePlan accepted duplicate index")
	}
}

// TestPlanCacheLRUEviction: the cache is bounded, so walking more patterns
// than its capacity evicts the oldest — re-running the first pattern is a
// fresh miss, the cache never exceeds its bound, and a recompiled plan is
// still bit-identical to the naive reference (eviction must lose nothing
// but time).
func TestPlanCacheLRUEviction(t *testing.T) {
	m := batchMachine(t, Config{Lanes: 30, MaxTimeNs: 200, Seed: 3})
	cap := engine.PlanCacheCapacity
	pat := func(k int) []engine.Observation {
		return []engine.Observation{{Index: k % m.N, Value: 0.2}, {Index: (k + 7) % m.N, Value: -0.2}}
	}
	// cap+1 distinct patterns: pattern 0 gets evicted. Every planned result
	// along the way must match the naive loop bit for bit.
	for k := 0; k <= cap; k++ {
		plan, err := m.Engine().InferSeeded(pat(k), 1)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := runFresh(m, engine.Request{Obs: pat(k), Seed: 1, Path: engine.Naive})
		if err != nil {
			t.Fatal(err)
		}
		identicalResults(t, "pre-eviction", plan, naive)
	}
	_, misses := m.Engine().PlanCacheStats()
	if want := uint64(cap + 1); misses != want {
		t.Fatalf("distinct patterns: misses=%d, want %d", misses, want)
	}
	if got := m.Engine().PlanCacheLen(); got != cap {
		t.Fatalf("cache holds %d plans, cap %d", got, cap)
	}
	// Pattern 0 was evicted: re-running it recompiles, and the recompiled
	// plan must still be bit-identical to naive.
	plan, err := m.Engine().InferSeeded(pat(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := runFresh(m, engine.Request{Obs: pat(0), Seed: 1, Path: engine.Naive})
	if err != nil {
		t.Fatal(err)
	}
	identicalResults(t, "post-eviction recompile", plan, naive)
	_, misses = m.Engine().PlanCacheStats()
	if want := uint64(cap + 2); misses != want {
		t.Fatalf("evicted pattern did not recompile: misses=%d, want %d", misses, want)
	}
	if got := m.Engine().PlanCacheLen(); got != cap {
		t.Fatalf("cache grew past its bound: holds %d plans, cap %d", got, cap)
	}
	// The survivor set still hits.
	hitsBefore, _ := m.Engine().PlanCacheStats()
	if _, err := m.Engine().InferSeeded(pat(cap), 1); err != nil {
		t.Fatal(err)
	}
	hits, _ := m.Engine().PlanCacheStats()
	if hits != hitsBefore+1 {
		t.Fatalf("recent pattern missed: hits %d -> %d", hitsBefore, hits)
	}
}

// TestEnsurePlanRejectsRailViolation: EnsurePlan runs the same validator as
// the inference entry points, including the rail bound it historically
// skipped, and its warm path reuses the engine's scratch instead of
// allocating a fresh mask and key per call.
func TestEnsurePlanRejectsRailViolation(t *testing.T) {
	m := batchMachine(t, Config{Lanes: 30, MaxTimeNs: 200, Seed: 3})
	if err := m.Engine().EnsurePlan([]engine.Observation{{Index: 1, Value: 2.5}}); err == nil || !strings.Contains(err.Error(), "rail") {
		t.Fatalf("EnsurePlan: got %v, want rail-bound error", err)
	}
	alloctest.SkipUnderRace(t)
	allocs := alloctest.Count(5, func() {
		if err := m.Engine().EnsurePlan([]engine.Observation{{Index: 1, Value: 0.2}}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm EnsurePlan allocated %d times in 5 runs, want 0", allocs)
	}
}

// TestDuplicateObservationRejected: clamping one node twice is a windowing
// bug, not a tie-break — every inference entry point must reject it.
func TestDuplicateObservationRejected(t *testing.T) {
	m := batchMachine(t, Config{Lanes: 30, MaxTimeNs: 200, Seed: 3})
	dup := []engine.Observation{{Index: 4, Value: 0.2}, {Index: 4, Value: 0.2}}
	if _, err := m.Engine().InferSeeded(dup, m.BaseSeed()); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("InferSeeded: got %v, want duplicate-observation error", err)
	}
	if _, err := runFresh(m, engine.Request{Obs: dup, Seed: 1, Path: engine.Naive}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("naive Run: got %v, want duplicate-observation error", err)
	}
	if _, err := m.Engine().InferBatch([][]engine.Observation{{{Index: 0, Value: 0.1}}, dup}, 2); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("InferBatch: got %v, want duplicate-observation error", err)
	}
}

// TestInferNaiveZeroAlloc keeps the reference loop honest too: after state
// warm-up the naive path must also run allocation-free, so benchmark deltas
// against it measure arithmetic, not allocator traffic.
func TestInferNaiveZeroAlloc(t *testing.T) {
	m := batchMachine(t, Config{Lanes: 30, MaxTimeNs: 500, Seed: 3})
	st := m.Engine().NewInferState()
	obs := []engine.Observation{{Index: 0, Value: 0.4}, {Index: 5, Value: -0.3}}
	if _, err := m.Engine().Run(st, engine.Request{Obs: obs, Seed: 1, Path: engine.Naive}); err != nil {
		t.Fatal(err)
	}
	alloctest.SkipUnderRace(t)
	allocs := alloctest.Count(5, func() {
		if _, err := m.Engine().Run(st, engine.Request{Obs: obs, Seed: 2, Path: engine.Naive}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("naive Run allocated %d times in 5 runs, want 0", allocs)
	}
}
