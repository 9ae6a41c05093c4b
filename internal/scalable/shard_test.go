package scalable

import (
	"math"
	"testing"

	"dsgl/internal/community"
	"dsgl/internal/engine"
	"dsgl/internal/mat"
	"dsgl/internal/pattern"
	"dsgl/internal/rng"
	"dsgl/internal/train"
)

// shardSystem builds a gently coupled trained system (weak couplings, so
// both the exact and the sharded anneal settle well inside the default
// time budget) on a 2x2 grid of 6-node PEs.
func shardSystem(t *testing.T, seed uint64) (*train.Params, *community.Assignment, *mat.Bool) {
	t.Helper()
	gw, gh, cap := 2, 2, 6
	n := gw * gh * cap
	a := &community.Assignment{
		PEOf:     make([]int, n),
		NodesOf:  make([][]int, gw*gh),
		GridW:    gw,
		GridH:    gh,
		Capacity: cap,
	}
	for i := 0; i < n; i++ {
		pe := i / cap
		a.PEOf[i] = pe
		a.NodesOf[pe] = append(a.NodesOf[pe], i)
	}
	r := rng.New(seed)
	j := mat.NewDense(n, n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if x != y && r.Float64() < 0.4 {
				j.Set(x, y, r.NormScaled(0, 0.03))
			}
		}
	}
	mask, _ := pattern.BuildMask(a, j, pattern.Config{Kind: pattern.DMesh, Wormholes: 3})
	j.ApplyMask(mask)
	h := make([]float64, n)
	for i := range h {
		h[i] = -1
	}
	return &train.Params{J: j, H: h}, a, mask
}

// shardedMachine compiles a sharding-enabled machine plus an identical
// exact twin (same system, sharding off) for reference runs.
func shardedMachine(t *testing.T, cfg Config) (sharded, exact *Machine) {
	t.Helper()
	p, a, mask := shardSystem(t, 5)
	s, err := Build(p, a, mask, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ShardWorkers = 0
	e, err := Build(p, a, mask, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, e
}

var shardObs = []engine.Observation{
	{Index: 0, Value: 0.4}, {Index: 3, Value: -0.2}, {Index: 7, Value: 0.6},
	{Index: 12, Value: -0.5}, {Index: 14, Value: 0.3}, {Index: 19, Value: 0.1},
	{Index: 21, Value: -0.35},
}

// TestShardedSettlesToSameFixedPoint is the tentpole contract: the sharded
// anneal must reach the same equilibrium as the exact sequential path
// within the residual-implied tolerance, and must be deterministic for a
// fixed seed.
func TestShardedSettlesToSameFixedPoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"spatial", Config{Lanes: 30, Seed: 11, ShardWorkers: 4}},
		{"temporal", Config{Lanes: 3, Seed: 11, ShardWorkers: 4}},
		{"two-shards", Config{Lanes: 30, Seed: 11, ShardWorkers: 2}},
		{"long-sync", Config{Lanes: 30, Seed: 11, ShardWorkers: 4, ShardSyncNs: 1000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sm, em := shardedMachine(t, tc.cfg)
			if sm.ShardCount() < 2 {
				t.Fatalf("machine should shard, ShardCount=%d", sm.ShardCount())
			}
			clamped := make([]bool, sm.N)
			for _, o := range shardObs {
				clamped[o.Index] = true
			}
			if sm.CompileShardedPlan(clamped) == nil {
				t.Fatal("sharded plan unexpectedly unavailable for this pattern")
			}
			for _, seed := range []uint64{1, 42} {
				shard, err := runFresh(sm, engine.Request{Obs: shardObs, Seed: seed, Path: engine.Sharded})
				if err != nil {
					t.Fatal(err)
				}
				exact, err := em.Engine().InferSeeded(shardObs, seed)
				if err != nil {
					t.Fatal(err)
				}
				if !exact.Settled {
					t.Fatal("exact reference did not settle; weaken the test system")
				}
				if !shard.Settled {
					t.Fatal("sharded anneal did not settle")
				}
				if shard.Switches < 1 {
					t.Fatalf("sharded run reports %d sync rounds", shard.Switches)
				}
				// Both residuals are < 1e-4 and H = -1, so the two settled
				// states bracket the unique fixed point within ~2e-4.
				const tol = 1e-3
				for i := range exact.Voltage {
					if d := math.Abs(shard.Voltage[i] - exact.Voltage[i]); d > tol {
						t.Fatalf("seed %d node %d: sharded %v vs exact %v (|Δ|=%.3g > %g)",
							seed, i, shard.Voltage[i], exact.Voltage[i], d, tol)
					}
				}
				// Settled implies the full residual bound, sharded path
				// included (invariant 2).
				r, err := sm.ResidualAt(shard.Voltage, clamped)
				if err != nil {
					t.Fatal(err)
				}
				if r >= sm.SettleResidualTol() {
					t.Fatalf("settled sharded residual %.3g >= bound %.3g", r, sm.SettleResidualTol())
				}
				if math.Float64bits(r) != math.Float64bits(shard.Residual) {
					t.Fatalf("engine.Result.Residual %v not bit-identical to ResidualAt %v", shard.Residual, r)
				}
				// Determinism: a repeat run reproduces bit-for-bit.
				again, err := runFresh(sm, engine.Request{Obs: shardObs, Seed: seed, Path: engine.Sharded})
				if err != nil {
					t.Fatal(err)
				}
				for i := range shard.Voltage {
					if math.Float64bits(shard.Voltage[i]) != math.Float64bits(again.Voltage[i]) {
						t.Fatalf("sharded run not deterministic at node %d: %v vs %v",
							i, shard.Voltage[i], again.Voltage[i])
					}
				}
			}
		})
	}
}

// TestShardedFallsBackToExact pins every documented fallback: a machine
// that cannot shard must return bit-identical results through the sharded
// entry points.
func TestShardedFallsBackToExact(t *testing.T) {
	p, a, mask := shardSystem(t, 5)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"disabled", Config{Lanes: 30, Seed: 11}},
		{"one-worker", Config{Lanes: 30, Seed: 11, ShardWorkers: 1}},
		{"sync-below-dt", Config{Lanes: 30, Seed: 11, ShardWorkers: 4, ShardSyncNs: 0.05}},
		{"noisy", Config{Lanes: 30, Seed: 11, ShardWorkers: 4, NodeNoise: 0.05}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Build(p, a, mask, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if n := m.ShardCount(); n != 0 {
				t.Fatalf("ShardCount = %d, want 0", n)
			}
			shard, err := runFresh(m, engine.Request{Obs: shardObs, Seed: 7, Path: engine.Sharded})
			if err != nil {
				t.Fatal(err)
			}
			exact, err := m.Engine().InferSeeded(shardObs, 7)
			if err != nil {
				t.Fatal(err)
			}
			identicalResults(t, tc.name, shard, exact)
		})
	}
}

// TestShardedPlanDeclinesConcentratedClamps: when the clamp pattern frees
// nodes in only one shard there is nothing to parallelize; the plan
// compiler must decline and the entry point must fall back exactly.
func TestShardedPlanDeclinesConcentratedClamps(t *testing.T) {
	sm, _ := shardedMachine(t, Config{Lanes: 30, Seed: 11, ShardWorkers: 4})
	clamped := make([]bool, sm.N)
	var obs []engine.Observation
	// Clamp every node except the first PE's six.
	for i := 6; i < sm.N; i++ {
		clamped[i] = true
		obs = append(obs, engine.Observation{Index: i, Value: 0.1})
	}
	if pl := sm.CompileShardedPlan(clamped); pl != nil {
		t.Fatal("plan should decline a single-shard free pattern")
	}
	shard, err := runFresh(sm, engine.Request{Obs: obs, Seed: 3, Path: engine.Sharded})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := sm.Engine().InferSeeded(obs, 3)
	if err != nil {
		t.Fatal(err)
	}
	identicalResults(t, "concentrated", shard, exact)
}

// TestShardedBatchMatchesSequentialSharded: the sharded batch entry point
// must be bit-identical to a sequential loop of Sharded Runs with
// the same per-window seeds, for any worker count (sharded runs are
// deterministic per seed, so the batch contract carries over).
func TestShardedBatchMatchesSequentialSharded(t *testing.T) {
	sm, _ := shardedMachine(t, Config{Lanes: 3, Seed: 11, ShardWorkers: 4})
	obs := batchObservations(12, sm.N)
	for _, workers := range []int{1, 4} {
		reqs := make([]engine.Request, len(obs))
		for i := range obs {
			reqs[i] = engine.Request{Obs: obs[i], Seed: sm.Config().Seed + uint64(i), Path: engine.Sharded}
		}
		batch, err := sm.Engine().RunBatch(reqs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range obs {
			seq, err := runFresh(sm, reqs[i])
			if err != nil {
				t.Fatal(err)
			}
			identicalResults(t, "sharded batch", batch[i], seq)
		}
	}
}
