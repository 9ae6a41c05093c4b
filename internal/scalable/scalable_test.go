package scalable

import (
	"math"
	"strings"
	"testing"

	"dsgl/internal/community"
	"dsgl/internal/dspu"
	"dsgl/internal/engine"
	"dsgl/internal/mat"
	"dsgl/internal/pattern"
	"dsgl/internal/rng"
	"dsgl/internal/train"
)

// testSystem builds a random trained system on a gw x gh grid with cap
// nodes per PE, confined to the given pattern mask.
func testSystem(t *testing.T, gw, gh, cap int, kind pattern.Kind, wormholes int, seed uint64) (*train.Params, *community.Assignment, *mat.Bool) {
	t.Helper()
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
			if x != y && r.Float64() < 0.5 {
				j.Set(x, y, r.NormScaled(0, 0.12))
			}
		}
	}
	mask, _ := pattern.BuildMask(a, j, pattern.Config{Kind: kind, Wormholes: wormholes})
	j.ApplyMask(mask)
	h := make([]float64, n)
	for i := range h {
		h[i] = -1
	}
	return &train.Params{J: j, H: h}, a, mask
}

func TestBuildSpatialModeWhenDemandFits(t *testing.T) {
	p, a, mask := testSystem(t, 2, 2, 4, pattern.DMesh, 2, 1)
	m, err := Build(p, a, mask, Config{Lanes: 30})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Mode != ModeSpatial {
		t.Fatalf("mode %v, want spatial (D=%d, L=%d)", st.Mode, st.MaxPortalDemand, st.Lanes)
	}
	if st.Rounds != 1 {
		t.Fatalf("rounds = %d", st.Rounds)
	}
	if st.MaxPortalDemand > st.Lanes {
		t.Fatalf("demand %d exceeds lanes %d but mode is spatial", st.MaxPortalDemand, st.Lanes)
	}
}

func TestBuildTemporalModeWhenDemandExceedsLanes(t *testing.T) {
	p, a, mask := testSystem(t, 2, 2, 8, pattern.DMesh, 2, 2)
	m, err := Build(p, a, mask, Config{Lanes: 2}) // tiny lane budget
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Mode != ModeTemporalSpatial {
		t.Fatalf("mode %v, want temporal+spatial", st.Mode)
	}
	if st.Rounds <= 1 {
		t.Fatalf("rounds = %d, want > 1", st.Rounds)
	}
	if st.MaxPortalDemand <= 2 {
		t.Fatalf("demand %d should exceed lanes", st.MaxPortalDemand)
	}
}

func TestEffectiveJMatchesTrainedJ(t *testing.T) {
	p, a, mask := testSystem(t, 2, 2, 6, pattern.DMesh, 3, 3)
	m, err := Build(p, a, mask, Config{Lanes: 4}) // forces multiple rounds
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().Rounds <= 1 {
		t.Skip("need temporal mode for this check to be interesting")
	}
	if !m.EffectiveJ().Equal(p.J, 1e-12) {
		t.Fatal("temporal slicing must preserve every coupling")
	}
}

func TestSpatialDropsOverflow(t *testing.T) {
	p, a, mask := testSystem(t, 2, 2, 8, pattern.DMesh, 2, 4)
	full, err := Build(p, a, mask, Config{Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := Build(p, a, mask, Config{Lanes: 2, TemporalDisabled: true})
	if err != nil {
		t.Fatal(err)
	}
	if dropped.Stats().Mode != ModeSpatial || dropped.Stats().Rounds != 1 {
		t.Fatalf("spatial variant stats: %+v", dropped.Stats())
	}
	if dropped.Stats().DroppedCouplings == 0 {
		t.Fatal("expected dropped couplings")
	}
	effFull := full.EffectiveJ().NNZ(0)
	effDropped := dropped.EffectiveJ().NNZ(0)
	if effDropped >= effFull {
		t.Fatalf("spatial variant should realize fewer couplings: %d vs %d", effDropped, effFull)
	}
}

func TestInferMatchesMonolithicDSPU(t *testing.T) {
	// A spatial-mode machine with frequent sync must match a single dense
	// DSPU on the same parameters.
	p, a, mask := testSystem(t, 2, 2, 4, pattern.DMesh, 4, 5)
	m, err := Build(p, a, mask, Config{Lanes: 30, SyncIntervalNs: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	obs := []engine.Observation{{Index: 0, Value: 0.4}, {Index: 5, Value: -0.3}}
	res, err := m.Engine().InferSeeded(obs, m.BaseSeed())
	if err != nil {
		t.Fatal(err)
	}

	d, err := dspu.New(p.J, p.H, dspu.Config{Seed: 9, MaxTimeNs: 5000})
	if err != nil {
		t.Fatal(err)
	}
	dres, err := d.Engine().InferSeeded([]engine.Observation{{Index: 0, Value: 0.4}, {Index: 5, Value: -0.3}}, d.BaseSeed())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Voltage {
		if math.Abs(res.Voltage[i]-dres.Voltage[i]) > 1e-3 {
			t.Fatalf("node %d: scalable %g vs dense %g", i, res.Voltage[i], dres.Voltage[i])
		}
	}
}

func TestTemporalInferenceApproachesTrueEquilibrium(t *testing.T) {
	p, a, mask := testSystem(t, 2, 2, 6, pattern.DMesh, 3, 7)
	m, err := Build(p, a, mask, Config{Lanes: 3, SyncIntervalNs: 10, MaxTimeNs: 40000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().Rounds <= 1 {
		t.Skip("system did not need temporal mode")
	}
	obs := []engine.Observation{{Index: 0, Value: 0.5}, {Index: 7, Value: -0.2}}
	res, err := m.Engine().InferSeeded(obs, m.BaseSeed())
	if err != nil {
		t.Fatal(err)
	}
	// Compare against the dense equilibrium on the full J.
	d, err := dspu.New(p.J, p.H, dspu.Config{Seed: 4, MaxTimeNs: 5000})
	if err != nil {
		t.Fatal(err)
	}
	dres, err := d.Engine().InferSeeded([]engine.Observation{{Index: 0, Value: 0.5}, {Index: 7, Value: -0.2}}, d.BaseSeed())
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range res.Voltage {
		if diff := math.Abs(res.Voltage[i] - dres.Voltage[i]); diff > worst {
			worst = diff
		}
	}
	if worst > 0.05 {
		t.Fatalf("temporal co-annealing diverged from equilibrium by %g", worst)
	}
	if res.Switches == 0 {
		t.Fatal("temporal mode must perform slice switches")
	}
}

func TestTemporalSlowerThanSpatial(t *testing.T) {
	// The accuracy/latency tradeoff of Fig. 11: temporal mode takes longer
	// than the spatial variant of the same system.
	p, a, mask := testSystem(t, 2, 2, 6, pattern.DMesh, 3, 11)
	obs := []engine.Observation{{Index: 0, Value: 0.5}}
	temporal, err := Build(p, a, mask, Config{Lanes: 3, MaxTimeNs: 40000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	spatial, err := Build(p, a, mask, Config{Lanes: 3, TemporalDisabled: true, MaxTimeNs: 40000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if temporal.Stats().Rounds <= 1 {
		t.Skip("system did not need temporal mode")
	}
	rt, err := temporal.Engine().InferSeeded(obs, temporal.BaseSeed())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := spatial.Engine().InferSeeded(obs, spatial.BaseSeed())
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Settled {
		t.Fatal("spatial run did not settle")
	}
	if rt.LatencyNs <= rs.LatencyNs {
		t.Fatalf("temporal latency %g should exceed spatial %g", rt.LatencyNs, rs.LatencyNs)
	}
}

func TestSyncIntervalDegradesFidelity(t *testing.T) {
	// Fig. 12: larger synchronization intervals leave inter-PE couplings
	// annealing against staler values, moving the result away from the
	// tightly-synchronized one.
	p, a, mask := testSystem(t, 2, 2, 6, pattern.DMesh, 3, 13)
	obs := []engine.Observation{{Index: 0, Value: 0.5}, {Index: 9, Value: -0.4}}
	run := func(sync float64) []float64 {
		// Lanes: 3 forces temporal+spatial mode — synchronization only
		// matters when held slices exist.
		m, err := Build(p, a, mask, Config{Lanes: 3, SyncIntervalNs: sync, Seed: 3, MaxTimeNs: 10000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Engine().InferSeeded(obs, m.BaseSeed())
		if err != nil {
			t.Fatal(err)
		}
		return res.Voltage
	}
	tight := run(0.05)
	mid := run(100)
	loose := run(3000)
	dev := func(v []float64) float64 {
		var worst float64
		for i := range v {
			if d := math.Abs(v[i] - tight[i]); d > worst {
				worst = d
			}
		}
		return worst
	}
	if dev(mid) > 0.02 {
		t.Fatalf("200ns-scale sync deviates too much: %g", dev(mid))
	}
	if dev(loose) < dev(mid) {
		t.Fatalf("looser sync should deviate more: %g vs %g", dev(loose), dev(mid))
	}
}

func TestNoiseToleration(t *testing.T) {
	p, a, mask := testSystem(t, 2, 2, 4, pattern.DMesh, 2, 17)
	obs := []engine.Observation{{Index: 0, Value: 0.5}}
	clean, err := Build(p, a, mask, Config{Lanes: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := Build(p, a, mask, Config{Lanes: 30, Seed: 5, NodeNoise: 0.05, CouplerNoise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := clean.Engine().InferSeeded(obs, clean.BaseSeed())
	if err != nil {
		t.Fatal(err)
	}
	rn, err := noisy.Engine().InferSeeded(obs, noisy.BaseSeed())
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range rc.Voltage {
		if d := math.Abs(rc.Voltage[i] - rn.Voltage[i]); d > worst {
			worst = d
		}
	}
	if worst == 0 {
		t.Fatal("noise had no effect")
	}
	if worst > 0.15 {
		t.Fatalf("5%% noise shifted voltages by %g — robustness broken", worst)
	}
}

func TestBuildRejectsMaskViolations(t *testing.T) {
	p, a, mask := testSystem(t, 2, 2, 4, pattern.Chain, 0, 19)
	// Inject a coupling the mask forbids.
	for x := 0; x < p.Dim(); x++ {
		for y := 0; y < p.Dim(); y++ {
			if x != y && !mask.At(x, y) {
				p.J.Set(x, y, 0.5)
				if _, err := Build(p, a, mask, Config{}); err == nil {
					t.Fatal("expected mask-violation error")
				}
				return
			}
		}
	}
	t.Skip("mask allows everything on this tiny grid")
}

func TestBuildValidation(t *testing.T) {
	p, a, mask := testSystem(t, 2, 2, 4, pattern.DMesh, 2, 23)
	short := &train.Params{J: mat.NewDense(4, 4), H: []float64{-1, -1, -1, -1}}
	if _, err := Build(short, a, mask, Config{}); err == nil {
		t.Fatal("expected error for size mismatch")
	}
	badMask := mat.NewBool(3, 3)
	if _, err := Build(p, a, badMask, Config{}); err == nil {
		t.Fatal("expected error for mask shape")
	}
	bad := p.Clone()
	bad.H[0] = 1
	if _, err := Build(bad, a, mask, Config{}); err == nil {
		t.Fatal("expected error for invalid params")
	}
}

func TestInferValidation(t *testing.T) {
	p, a, mask := testSystem(t, 2, 2, 4, pattern.DMesh, 2, 29)
	m, err := Build(p, a, mask, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Engine().InferSeeded([]engine.Observation{{Index: 99, Value: 0}}, m.BaseSeed()); err == nil {
		t.Fatal("expected error for bad index")
	}
	if _, err := m.Engine().InferSeeded([]engine.Observation{{Index: 0, Value: 2}}, m.BaseSeed()); err == nil {
		t.Fatal("expected error for out-of-rail value")
	}
}

func TestInferDeterministic(t *testing.T) {
	p, a, mask := testSystem(t, 2, 2, 4, pattern.DMesh, 2, 31)
	run := func() float64 {
		m, err := Build(p, a, mask, Config{Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Engine().InferSeeded([]engine.Observation{{Index: 0, Value: 0.3}}, m.BaseSeed())
		if err != nil {
			t.Fatal(err)
		}
		return res.Voltage[p.Dim()-1]
	}
	if run() != run() {
		t.Fatal("same seed must reproduce results")
	}
}

func TestWormholeRoutingCounted(t *testing.T) {
	// Force a remote coupling (4x1 chain grid, coupling PE0 <-> PE3).
	gw, gh, cap := 4, 1, 2
	n := gw * gh * cap
	a := &community.Assignment{
		PEOf: make([]int, n), NodesOf: make([][]int, gw*gh),
		GridW: gw, GridH: gh, Capacity: cap,
	}
	for i := 0; i < n; i++ {
		pe := i / cap
		a.PEOf[i] = pe
		a.NodesOf[pe] = append(a.NodesOf[pe], i)
	}
	j := mat.NewDense(n, n)
	j.Set(0, n-1, 0.3)
	j.Set(n-1, 0, 0.3)
	h := make([]float64, n)
	for i := range h {
		h[i] = -1
	}
	mask, _ := pattern.BuildMask(a, j, pattern.Config{Kind: Chain(), Wormholes: 1})
	m, err := Build(&train.Params{J: j, H: h}, a, mask, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().WormholeCouplings == 0 {
		t.Fatal("remote coupling should be routed via wormhole")
	}
	// The wormhole must actually carry current: clamping node 0 must move
	// node n-1.
	res, err := m.Engine().InferSeeded([]engine.Observation{{Index: 0, Value: 0.5}}, m.BaseSeed())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Voltage[n-1]-0.15) > 1e-2 {
		t.Fatalf("wormhole fixed point %g, want 0.15", res.Voltage[n-1])
	}
}

// Chain re-exports pattern.Chain so the test above reads naturally.
func Chain() pattern.Kind { return pattern.Chain }

func TestModeString(t *testing.T) {
	if ModeSpatial.String() != "spatial" || ModeTemporalSpatial.String() != "temporal+spatial" {
		t.Fatal("mode names changed")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode must stringify")
	}
}

func TestEnergyDecreasesOverall(t *testing.T) {
	p, a, mask := testSystem(t, 2, 2, 4, pattern.DMesh, 2, 37)
	// Symmetrize J so the Lyapunov argument holds exactly.
	p.J.Symmetrize()
	p.J.ZeroDiagonal()
	m, err := Build(p, a, mask, Config{Seed: 6, SyncIntervalNs: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// The engine inits free nodes uniform in [-0.1, 0.1) from the request
	// seed alone; replaying that draw gives the starting energy.
	x0 := make([]float64, p.Dim())
	rng.New(6).FillUniform(x0, -0.1, 0.1)
	e0 := m.EnergyAt(x0)
	res, err := m.Engine().InferSeeded(nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy > e0 {
		t.Fatalf("energy rose: %g -> %g", e0, res.Energy)
	}
}

func TestDescribeReportsMapping(t *testing.T) {
	p, a, mask := testSystem(t, 2, 2, 6, pattern.DMesh, 3, 41)
	m, err := Build(p, a, mask, Config{Lanes: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	m.Describe(&sb)
	out := sb.String()
	for _, want := range []string{"Scalable DSPU mapping", "PE", "intra-NNZ", "lane budget", "PE pair"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Describe output missing %q:\n%s", want, out)
		}
	}
	if m.Stats().Rounds > 1 && !strings.Contains(out, "slice") {
		t.Fatal("temporal mapping must list slices")
	}
}
