package dspu

import (
	"testing"

	"dsgl/internal/alloctest"
	"dsgl/internal/engine"
)

// TestObserverEnergyDescendsOnDensePath checks the dense-path observer: the
// symmetric chain DSPU is an exact gradient flow of H_RV, so the per-step
// observer must see the energy fall monotonically (up to forward-Euler
// slack) and one callback per integration step taken.
func TestObserverEnergyDescendsOnDensePath(t *testing.T) {
	d := chainDSPU(t, 6, 0.3, Config{MaxTimeNs: 200, Seed: 9})
	st := d.Engine().NewInferState()
	var trace []float64
	steps := 0
	st.SetObserver(func(si engine.StepInfo) {
		if si.Step != steps {
			t.Fatalf("step sequence broken: got %d, want %d", si.Step, steps)
		}
		steps++
		// EnergyFn is only valid during the callback; evaluate it here.
		trace = append(trace, si.EnergyFn())
	})
	res, err := d.Engine().InferWith(st, []engine.Observation{{Index: 0, Value: 0.6}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if steps != res.Steps {
		t.Fatalf("observer saw %d steps, result reports %d", steps, res.Steps)
	}
	if trace[len(trace)-1] != res.Energy {
		t.Fatalf("last observed energy %g != FinalEnergy %g", trace[len(trace)-1], res.Energy)
	}
	for k := 1; k < len(trace); k++ {
		if trace[k] > trace[k-1]+1e-9 {
			t.Fatalf("energy rose at step %d: %.12g -> %.12g", k, trace[k-1], trace[k])
		}
	}
	// Removing the observer stops the callbacks.
	st.SetObserver(nil)
	n := steps
	if _, err := d.Engine().InferWith(st, nil, 3); err != nil {
		t.Fatal(err)
	}
	if steps != n {
		t.Fatal("observer called after SetObserver(nil)")
	}
}

func TestObserverNilKeepsZeroAllocDense(t *testing.T) {
	d := chainDSPU(t, 6, 0.3, Config{MaxTimeNs: 100, Seed: 9})
	st := d.Engine().NewInferState()
	obs := []engine.Observation{{Index: 0, Value: 0.6}}
	if _, err := d.Engine().InferWith(st, obs, 1); err != nil {
		t.Fatal(err)
	}
	alloctest.SkipUnderRace(t)
	allocs := alloctest.Count(5, func() {
		if _, err := d.Engine().InferWith(st, obs, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-observer InferWith allocated %d times in 5 runs, want 0", allocs)
	}
}
