package scalable

import (
	"testing"

	"dsgl/internal/engine"
	"dsgl/internal/mat"
	"dsgl/internal/pattern"
)

// batchMachine compiles a temporal-mode test system for the batch tests.
func batchMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	p, a, mask := testSystem(t, 2, 2, 6, pattern.DMesh, 3, 7)
	m, err := Build(p, a, mask, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// batchObservations builds a batch of distinct observation sets.
func batchObservations(n, dim int) [][]engine.Observation {
	obs := make([][]engine.Observation, n)
	for i := range obs {
		obs[i] = []engine.Observation{
			{Index: i % dim, Value: 0.5 - 0.05*float64(i%10)},
			{Index: (i*3 + 1) % dim, Value: -0.3 + 0.04*float64(i%7)},
		}
	}
	return obs
}

// TestInferBatchMatchesSequential is the concurrent-correctness contract:
// a batch fanned across >= 8 workers must be bit-identical — voltages,
// latency, switches, energy, settled flags — to a sequential loop calling
// InferSeeded with the same per-window seeds. Run under -race (the CI
// workflow does) this also exercises the worker pool for data races.
func TestInferBatchMatchesSequential(t *testing.T) {
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
			obs := batchObservations(24, m.N)
			batch, err := m.Engine().InferBatch(obs, 8)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != len(obs) {
				t.Fatalf("batch returned %d results for %d windows", len(batch), len(obs))
			}
			for i := range obs {
				seq, err := m.Engine().InferSeeded(obs[i], m.Config().Seed+uint64(i))
				if err != nil {
					t.Fatal(err)
				}
				b := batch[i]
				if b.LatencyNs != seq.LatencyNs || b.AnnealNs != seq.AnnealNs ||
					b.Settled != seq.Settled || b.Switches != seq.Switches ||
					b.Energy != seq.Energy {
					t.Fatalf("window %d: batch result %+v != sequential %+v", i, b, seq)
				}
				for k := range b.Voltage {
					if b.Voltage[k] != seq.Voltage[k] {
						t.Fatalf("window %d node %d: batch voltage %g != sequential %g (must be bit-identical)",
							i, k, b.Voltage[k], seq.Voltage[k])
					}
				}
			}
		})
	}
}

// TestInferBatchWorkerCountInvariance: results must not depend on pool
// size or scheduling — only on the per-window seed.
func TestInferBatchWorkerCountInvariance(t *testing.T) {
	m := batchMachine(t, Config{Lanes: 3, MaxTimeNs: 1000, Seed: 5})
	obs := batchObservations(10, m.N)
	ref, err := m.Engine().InferBatch(obs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16, 0, -1} {
		got, err := m.Engine().InferBatch(obs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			for k := range ref[i].Voltage {
				if got[i].Voltage[k] != ref[i].Voltage[k] {
					t.Fatalf("workers=%d window %d node %d: %g != %g",
						workers, i, k, got[i].Voltage[k], ref[i].Voltage[k])
				}
			}
		}
	}
}

func TestInferBatchPropagatesError(t *testing.T) {
	m := batchMachine(t, Config{Lanes: 30, MaxTimeNs: 500, Seed: 5})
	obs := batchObservations(6, m.N)
	obs[3] = []engine.Observation{{Index: m.N + 7, Value: 0.1}} // out of range
	if _, err := m.Engine().InferBatch(obs, 4); err == nil {
		t.Fatal("expected error for out-of-range observation in batch")
	}
	if _, err := m.Engine().InferBatch(nil, 4); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestInferSeededBaseSeedMatchesInfer(t *testing.T) {
	m := batchMachine(t, Config{Lanes: 30, MaxTimeNs: 500, Seed: 21})
	obs := []engine.Observation{{Index: 0, Value: 0.4}, {Index: 5, Value: -0.3}}
	a, err := m.Engine().InferSeeded(obs, m.BaseSeed())
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Engine().InferSeeded(obs, m.Config().Seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Voltage {
		if a.Voltage[i] != b.Voltage[i] {
			t.Fatalf("node %d: InferSeeded(BaseSeed) %g != InferSeeded(Config.Seed) %g", i, a.Voltage[i], b.Voltage[i])
		}
	}
}

// TestInferWithZeroAlloc enforces the zero-allocation claim: after a
// state's first (warm-up) use, a full inference — clamping, anneal loop,
// sample-and-hold refreshes, residual checks, result assembly — performs
// no heap allocations, in every co-annealing mode and with noise enabled.
func TestInferWithZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"spatial", Config{Lanes: 30, MaxTimeNs: 500, Seed: 3}},
		{"temporal", Config{Lanes: 3, MaxTimeNs: 500, Seed: 3}},
		{"noisy", Config{Lanes: 3, MaxTimeNs: 200, Seed: 3, NodeNoise: 0.05, CouplerNoise: 0.05}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := batchMachine(t, tc.cfg)
			st := m.Engine().NewInferState()
			obs := []engine.Observation{{Index: 0, Value: 0.4}, {Index: 5, Value: -0.3}}
			if _, err := m.Engine().InferWith(st, obs, 1); err != nil { // warm-up
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := m.Engine().InferWith(st, obs, 2); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("InferWith allocated %v per op after warm-up, want 0", allocs)
			}
		})
	}
}

func TestInferWithRejectsForeignState(t *testing.T) {
	m1 := batchMachine(t, Config{Lanes: 30, MaxTimeNs: 200, Seed: 3})
	m2 := batchMachine(t, Config{Lanes: 30, MaxTimeNs: 200, Seed: 4})
	st := m1.Engine().NewInferState()
	if _, err := m2.Engine().InferWith(st, nil, 1); err == nil {
		t.Fatal("expected error for a state built by another machine")
	}
	if _, err := m1.Engine().InferWith(nil, nil, 1); err == nil {
		t.Fatal("expected error for nil state")
	}
}

// TestInferStateResultAliasing documents the aliasing contract: the state's
// Result voltage is overwritten in place by the next inference, while
// InferSeeded returns detached copies.
func TestInferStateResultAliasing(t *testing.T) {
	m := batchMachine(t, Config{Lanes: 30, MaxTimeNs: 500, Seed: 9})
	st := m.Engine().NewInferState()
	r1, err := m.Engine().InferWith(st, []engine.Observation{{Index: 0, Value: 0.4}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	v0 := r1.Voltage[m.N-1]
	if st.Result() != r1 {
		t.Fatal("engine.InferState.Result must return the last inference's result")
	}
	if _, err := m.Engine().InferWith(st, []engine.Observation{{Index: 0, Value: -0.4}}, 2); err != nil {
		t.Fatal(err)
	}
	if r1.Voltage[m.N-1] == v0 {
		t.Fatal("aliased voltage should have been overwritten by the second inference")
	}
	detached, err := m.Engine().InferSeeded([]engine.Observation{{Index: 0, Value: 0.4}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	vd := detached.Voltage[m.N-1]
	if _, err := m.Engine().InferSeeded([]engine.Observation{{Index: 0, Value: -0.4}}, 2); err != nil {
		t.Fatal(err)
	}
	if detached.Voltage[m.N-1] != vd {
		t.Fatal("InferSeeded result must not alias scratch")
	}
}

// TestTypicalCoupling pins the coupler-noise scale: the mean |J| over the
// couplings the machine realizes (regression test for the divide-by-N bug:
// the sum used to be divided by the node count instead of the coupling
// count).
func TestTypicalCoupling(t *testing.T) {
	intra := mat.FromDense(mat.NewDenseFrom(4, 4, []float64{
		0, 1, 0, 0,
		-2, 0, 0, 0,
		0, 0, 0, 0,
		0, 0, 0, 0,
	}), 0)
	phase := mat.FromDense(mat.NewDenseFrom(4, 4, []float64{
		0, 0, 0, 3,
		0, 0, 0, 0,
		0, 0, 0, 0,
		0, 0, 0, 0,
	}), 0)
	m := &Machine{N: 4, intra: intra, phases: []*mat.CSR{phase}}
	// |1| + |-2| + |3| over 3 couplings = 2. The old bug divided by N=4,
	// yielding 1.5.
	if got := m.typicalCoupling(); got != 2 {
		t.Fatalf("typicalCoupling = %g, want 2 (mean |J| over 3 couplings)", got)
	}
	empty := &Machine{N: 4, intra: mat.FromDense(mat.NewDense(4, 4), 0)}
	if got := empty.typicalCoupling(); got != 1 {
		t.Fatalf("typicalCoupling with no couplings = %g, want fallback 1", got)
	}
}

// TestConfigFillDefaults is the table test for every Config field's
// zero-value behaviour, including the sentinel conventions.
func TestConfigFillDefaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   Config
		want Config
	}{
		{
			name: "all-defaults",
			in:   Config{},
			want: Config{
				Lanes: 30, Dt: 0.1, MaxTimeNs: 20000, SettleTol: 1e-5,
				VRail: 1, SyncIntervalNs: 200, SwitchIntervalNs: 200,
				SwitchOverheadNs: 20, ShardSyncNs: 200,
			},
		},
		{
			name: "explicit-values-kept",
			in: Config{
				Lanes: 8, Dt: 0.2, MaxTimeNs: 100, SettleTol: 1e-3,
				VRail: 2, SyncIntervalNs: 50, SwitchIntervalNs: 25,
				SwitchOverheadNs: 5, TemporalDisabled: true,
				ShardWorkers: 3, ShardSyncNs: 40,
				NodeNoise: 0.1, CouplerNoise: 0.2, Seed: 9,
			},
			want: Config{
				Lanes: 8, Dt: 0.2, MaxTimeNs: 100, SettleTol: 1e-3,
				VRail: 2, SyncIntervalNs: 50, SwitchIntervalNs: 25,
				SwitchOverheadNs: 5, TemporalDisabled: true,
				ShardWorkers: 3, ShardSyncNs: 40,
				NodeNoise: 0.1, CouplerNoise: 0.2, Seed: 9,
			},
		},
		{
			name: "switch-interval-follows-sync",
			in:   Config{SyncIntervalNs: 75},
			want: Config{
				Lanes: 30, Dt: 0.1, MaxTimeNs: 20000, SettleTol: 1e-5,
				VRail: 1, SyncIntervalNs: 75, SwitchIntervalNs: 75,
				SwitchOverheadNs: 20, ShardSyncNs: 75,
			},
		},
		{
			name: "negative-switch-overhead-means-zero",
			in:   Config{SwitchOverheadNs: -1},
			want: Config{
				Lanes: 30, Dt: 0.1, MaxTimeNs: 20000, SettleTol: 1e-5,
				VRail: 1, SyncIntervalNs: 200, SwitchIntervalNs: 200,
				SwitchOverheadNs: 0, ShardSyncNs: 200,
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.in
			got.fillDefaults()
			if got != tc.want {
				t.Fatalf("fillDefaults:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}
