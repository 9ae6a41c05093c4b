package dspu

import (
	"math"
	"sync"
	"testing"

	"dsgl/internal/engine"
)

// TestConcurrentInferenceSharedDSPU exercises the documented concurrency
// contract: one DSPU, many goroutines, each with a private InferState. An
// inference writes only its state's plan binding and scratch, never the
// DSPU; run under -race this test catches any shared write that would let
// two observation patterns corrupt each other. Results must also stay
// bit-identical to a sequential run.
func TestConcurrentInferenceSharedDSPU(t *testing.T) {
	d := chainDSPU(t, 12, 0.3, Config{MaxTimeNs: 150, Seed: 9})
	patterns := [][]engine.Observation{
		{{Index: 0, Value: 0.6}},
		{{Index: 3, Value: -0.4}, {Index: 7, Value: 0.2}},
	}

	// Sequential reference, one fresh state per pattern.
	want := make([]*engine.Result, len(patterns))
	for i, obs := range patterns {
		res, err := d.Engine().InferWith(d.Engine().NewInferState(), obs, uint64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Detach()
	}

	const rounds = 25
	var wg sync.WaitGroup
	errs := make([]error, len(patterns))
	for i, obs := range patterns {
		wg.Add(1)
		go func(i int, obs []engine.Observation) {
			defer wg.Done()
			st := d.Engine().NewInferState()
			for r := 0; r < rounds; r++ {
				res, err := d.Engine().InferWith(st, obs, uint64(100+i))
				if err != nil {
					errs[i] = err
					return
				}
				for k := range res.Voltage {
					if math.Float64bits(res.Voltage[k]) != math.Float64bits(want[i].Voltage[k]) {
						t.Errorf("pattern %d round %d node %d: concurrent %v, sequential %v",
							i, r, k, res.Voltage[k], want[i].Voltage[k])
						return
					}
				}
			}
		}(i, obs)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("pattern %d: %v", i, err)
		}
	}
}

// TestConcurrentNaiveAndPlanned mixes the naive and planned paths across
// goroutines on one DSPU — both must be free of shared mutable state.
func TestConcurrentNaiveAndPlanned(t *testing.T) {
	d := chainDSPU(t, 10, 0.3, Config{MaxTimeNs: 120, Seed: 4})
	obs := []engine.Observation{{Index: 0, Value: 0.5}, {Index: 5, Value: -0.3}}
	ref, err := d.Engine().InferWith(d.Engine().NewInferState(), obs, 7)
	if err != nil {
		t.Fatal(err)
	}
	ref = ref.Detach()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := d.Engine().NewInferState()
			for r := 0; r < 10; r++ {
				var res *engine.Result
				var err error
				if g%2 == 0 {
					res, err = d.Engine().InferWith(st, obs, 7)
				} else {
					res, err = d.Engine().Run(st, engine.Request{Obs: obs, Seed: 7, Path: engine.Naive})
				}
				if err != nil {
					t.Error(err)
					return
				}
				if math.Float64bits(res.Energy) != math.Float64bits(ref.Energy) {
					t.Errorf("goroutine %d: energy %v, want %v", g, res.Energy, ref.Energy)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
