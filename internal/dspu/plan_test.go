package dspu

import (
	"math"
	"strings"
	"testing"

	"dsgl/internal/circuit"
	"dsgl/internal/engine"
	"dsgl/internal/ode"
	"dsgl/internal/rng"
)

// identicalResults asserts two dense-path Results carry the same IEEE-754
// bit patterns everywhere — the dspu half of the plan-naive-identity
// contract.
func identicalResults(t *testing.T, label string, plan, naive *engine.Result) {
	t.Helper()
	if len(plan.Voltage) != len(naive.Voltage) {
		t.Fatalf("%s: voltage length %d vs %d", label, len(plan.Voltage), len(naive.Voltage))
	}
	for i := range plan.Voltage {
		if math.Float64bits(plan.Voltage[i]) != math.Float64bits(naive.Voltage[i]) {
			t.Fatalf("%s: voltage[%d] differs: plan %v naive %v", label, i, plan.Voltage[i], naive.Voltage[i])
		}
	}
	if math.Float64bits(plan.LatencyNs) != math.Float64bits(naive.LatencyNs) {
		t.Fatalf("%s: latency %v vs %v", label, plan.LatencyNs, naive.LatencyNs)
	}
	if math.Float64bits(plan.Energy) != math.Float64bits(naive.Energy) {
		t.Fatalf("%s: energy %v vs %v", label, plan.Energy, naive.Energy)
	}
	if plan.Steps != naive.Steps || plan.Settled != naive.Settled {
		t.Fatalf("%s: steps/settled (%d,%v) vs (%d,%v)", label, plan.Steps, plan.Settled, naive.Steps, naive.Settled)
	}
}

// runFresh runs one request on a fresh state of d's engine.
func runFresh(d *DSPU, req engine.Request) (*engine.Result, error) {
	return d.Engine().Run(d.Engine().NewInferState(), req)
}

// TestDSPUInferPlanBitIdentical: the plan path must reproduce the naive
// network bit for bit under both integrators, for several seeds and clamp
// patterns — including no clamps (all dyn) and all clamps (nothing free).
func TestDSPUInferPlanBitIdentical(t *testing.T) {
	for _, integ := range []struct {
		name string
		mk   func() ode.Integrator
	}{
		{"euler", func() ode.Integrator { return ode.NewEuler() }},
		{"rk4", func() ode.Integrator { return ode.NewRK4() }},
	} {
		t.Run(integ.name, func(t *testing.T) {
			d := chainDSPU(t, 8, 0.3, Config{MaxTimeNs: 200, Seed: 9, Integrator: integ.mk()})
			for _, seed := range []uint64{1, 5, 99} {
				for _, obs := range [][]engine.Observation{
					nil,
					{{Index: 0, Value: 0.6}},
					{{Index: 0, Value: 0.6}, {Index: 4, Value: -0.2}},
					{{Index: 0, Value: 0.1}, {Index: 1, Value: 0.2}, {Index: 2, Value: -0.3}, {Index: 3, Value: 0.4}, {Index: 4, Value: 0.5}, {Index: 5, Value: -0.6}, {Index: 6, Value: 0.7}, {Index: 7, Value: -0.8}},
				} {
					plan, err := d.Engine().InferWith(d.Engine().NewInferState(), obs, seed)
					if err != nil {
						t.Fatal(err)
					}
					plan = plan.Detach()
					naive, err := runFresh(d, engine.Request{Obs: obs, Seed: seed, Path: engine.Naive})
					if err != nil {
						t.Fatal(err)
					}
					identicalResults(t, integ.name, plan, naive)
				}
			}
		})
	}
}

// TestDSPUInferPlanBitIdenticalNoisy extends the contract to the disturbed
// network: the plan path replicates the coupler-noise scale and the
// per-free-node draw order, so with a shared reseeded RNG the two paths see
// the same noise stream and settle identically.
func TestDSPUInferPlanBitIdenticalNoisy(t *testing.T) {
	run := func(naive bool) *engine.Result {
		noiseRNG := rng.New(77)
		d := chainDSPU(t, 8, 0.3, Config{
			MaxTimeNs: 100, Seed: 9,
			Noise: &circuit.NoiseModel{NodeSigma: 0.02, CouplerSigma: 0.02, RNG: noiseRNG},
		})
		obs := []engine.Observation{{Index: 0, Value: 0.6}, {Index: 4, Value: -0.2}}
		var res *engine.Result
		var err error
		if naive {
			res, err = runFresh(d, engine.Request{Obs: obs, Seed: 3, Path: engine.Naive})
		} else {
			res, err = d.Engine().InferWith(d.Engine().NewInferState(), obs, 3)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res.Detach()
	}
	identicalResults(t, "noisy", run(false), run(true))
}

// TestDSPUPlanCacheReuse: repeated inferences sharing a clamp pattern
// compile once; a new pattern compiles again.
func TestDSPUPlanCacheReuse(t *testing.T) {
	d := chainDSPU(t, 8, 0.3, Config{MaxTimeNs: 100, Seed: 9})
	st := d.Engine().NewInferState()
	obs := []engine.Observation{{Index: 0, Value: 0.6}}
	for k := 0; k < 5; k++ {
		if _, err := d.Engine().InferWith(st, obs, uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := d.Engine().PlanCacheStats()
	if misses != 1 || hits != 4 {
		t.Fatalf("shared pattern: hits=%d misses=%d, want 4/1", hits, misses)
	}
	if _, err := d.Engine().InferWith(st, []engine.Observation{{Index: 3, Value: 0.1}}, 0); err != nil {
		t.Fatal(err)
	}
	if _, misses = d.Engine().PlanCacheStats(); misses != 2 {
		t.Fatalf("new pattern did not compile: misses=%d", misses)
	}
}

// TestDSPUDuplicateObservationRejected: the dense path rejects duplicate
// observation indices on both the plan and naive entries.
func TestDSPUDuplicateObservationRejected(t *testing.T) {
	d := chainDSPU(t, 6, 0.3, Config{MaxTimeNs: 100, Seed: 9})
	dup := []engine.Observation{{Index: 2, Value: 0.1}, {Index: 2, Value: 0.1}}
	if _, err := d.Engine().InferSeeded(dup, d.BaseSeed()); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("InferSeeded: got %v, want duplicate-observation error", err)
	}
	if _, err := runFresh(d, engine.Request{Obs: dup, Seed: 1, Path: engine.Naive}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("naive Run: got %v, want duplicate-observation error", err)
	}
}

// TestDSPUNaiveZeroAlloc keeps the naive reference loop allocation-free
// after warm-up, like the plan path.
func TestDSPUNaiveZeroAlloc(t *testing.T) {
	d := chainDSPU(t, 6, 0.3, Config{MaxTimeNs: 100, Seed: 9})
	st := d.Engine().NewInferState()
	obs := []engine.Observation{{Index: 0, Value: 0.6}}
	if _, err := d.Engine().Run(st, engine.Request{Obs: obs, Seed: 1, Path: engine.Naive}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := d.Engine().Run(st, engine.Request{Obs: obs, Seed: 2, Path: engine.Naive}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("naive Run allocated %v per op, want 0", allocs)
	}
}
