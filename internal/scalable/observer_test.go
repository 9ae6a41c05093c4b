package scalable

import (
	"testing"

	"dsgl/internal/community"
	"dsgl/internal/engine"
	"dsgl/internal/mat"
	"dsgl/internal/train"
)

// directedSystem builds a single-PE system whose couplings run only from
// the first nObs (clamped) nodes into the remaining free nodes — the same
// directed shape the closed-form DS-GL training produces.
func directedSystem(t *testing.T, n, nObs int) (*Machine, []engine.Observation, []bool) {
	t.Helper()
	a := &community.Assignment{
		PEOf:     make([]int, n),
		NodesOf:  [][]int{make([]int, n)},
		GridW:    1,
		GridH:    1,
		Capacity: n,
	}
	for i := 0; i < n; i++ {
		a.NodesOf[0][i] = i
	}
	j := mat.NewDense(n, n)
	for f := nObs; f < n; f++ {
		for o := 0; o < nObs; o++ {
			j.Set(f, o, 0.11*float64(1+(f+o)%3))
		}
	}
	h := make([]float64, n)
	for i := range h {
		h[i] = -1
	}
	m, err := Build(&train.Params{J: j, H: h}, a, nil, Config{MaxTimeNs: 500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]engine.Observation, nObs)
	clamped := make([]bool, n)
	for o := 0; o < nObs; o++ {
		obs[o] = engine.Observation{Index: o, Value: 0.5 - 0.2*float64(o%3)}
		clamped[o] = true
	}
	return m, obs, clamped
}

func TestObserverReceivesEveryStep(t *testing.T) {
	m := batchMachine(t, Config{Lanes: 30, MaxTimeNs: 200, Seed: 3})
	st := m.Engine().NewInferState()
	var infos []engine.StepInfo
	var lastEnergy float64
	st.SetObserver(func(si engine.StepInfo) {
		if si.X == nil || len(si.X) != m.N {
			t.Fatalf("step %d: X has %d entries, want %d", si.Step, len(si.X), m.N)
		}
		// EnergyFn is only valid during the callback; sample it here.
		lastEnergy = si.EnergyFn()
		infos = append(infos, si)
	})
	res, err := m.Engine().InferWith(st, []engine.Observation{{Index: 0, Value: 0.4}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) == 0 {
		t.Fatal("observer never called")
	}
	for k, si := range infos {
		if si.Step != k {
			t.Fatalf("step sequence broken at %d: got %d", k, si.Step)
		}
	}
	last := infos[len(infos)-1]
	if last.TimeNs != res.AnnealNs {
		t.Fatalf("last observed time %g != anneal time %g", last.TimeNs, res.AnnealNs)
	}
	if got := lastEnergy; got != m.EnergyAt(res.Voltage) {
		t.Fatalf("last observed energy %g != EnergyAt(final) %g", got, m.EnergyAt(res.Voltage))
	}
	// Removing the observer stops the callbacks.
	st.SetObserver(nil)
	n := len(infos)
	if _, err := m.Engine().InferWith(st, []engine.Observation{{Index: 0, Value: 0.4}}, 1); err != nil {
		t.Fatal(err)
	}
	if len(infos) != n {
		t.Fatal("observer called after SetObserver(nil)")
	}
}

// TestObserverClampedEnergyDescends checks the Lyapunov contract on the
// quantity that actually descends under clamped annealing of a directed
// system: the conditional Hamiltonian ClampedEnergyAt. The raw Hamiltonian
// EnergyAt half-weights the clamp couplings and carries no such guarantee.
func TestObserverClampedEnergyDescends(t *testing.T) {
	m, obs, clamped := directedSystem(t, 10, 4)
	st := m.Engine().NewInferState()
	var trace []float64
	st.SetObserver(func(si engine.StepInfo) {
		trace = append(trace, m.ClampedEnergyAt(si.X, clamped))
	})
	res, err := m.Engine().InferWith(st, obs, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Settled {
		t.Fatal("directed system should settle well within 500 ns")
	}
	if len(trace) < 10 {
		t.Fatalf("only %d trace points", len(trace))
	}
	for k := 1; k < len(trace); k++ {
		if trace[k] > trace[k-1]+1e-12 {
			t.Fatalf("conditional Hamiltonian rose at step %d: %.12g -> %.12g", k, trace[k-1], trace[k])
		}
	}
}

// TestClampedEnergyGradientConsistency checks that -dE_c/dt along the
// trajectory matches the squared derivative norm (the defining property of
// a gradient flow), i.e. ClampedEnergyAt is the right Lyapunov functional
// for the simulated dynamics.
func TestClampedEnergyGradientConsistency(t *testing.T) {
	m, obs, clamped := directedSystem(t, 10, 4)
	st := m.Engine().NewInferState()
	type sample struct{ e, maxD float64 }
	var ss []sample
	st.SetObserver(func(si engine.StepInfo) {
		ss = append(ss, sample{m.ClampedEnergyAt(si.X, clamped), si.MaxDeriv})
	})
	if _, err := m.Engine().InferWith(st, obs, 7); err != nil {
		t.Fatal(err)
	}
	// While the derivative is large, energy must move; once max|dσ/dt| is
	// tiny, the energy must be flat to first order.
	for k := 1; k < len(ss); k++ {
		drop := ss[k-1].e - ss[k].e
		if ss[k].maxD < 1e-8 && drop > 1e-8 {
			t.Fatalf("step %d: derivative ~0 but energy still falling by %g", k, drop)
		}
	}
}

func TestResidualAtSettledState(t *testing.T) {
	m, obs, clamped := directedSystem(t, 10, 4)
	res, err := m.Engine().InferSeeded(obs, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Settled {
		t.Fatal("expected settle")
	}
	r, err := m.ResidualAt(res.Voltage, clamped)
	if err != nil {
		t.Fatal(err)
	}
	if r >= m.SettleResidualTol() {
		t.Fatalf("settled residual %g >= bound %g", r, m.SettleResidualTol())
	}
	// At the regression equilibrium the residual definition itself must
	// hold: σ_i ≈ -Σ J_ij σ_j / h_i for every free node.
	// (ResidualAt is max |Σ J_ij σ_j + h_i σ_i| over free nodes.)
	if _, err := m.ResidualAt(res.Voltage[:3], clamped); err == nil {
		t.Fatal("expected length error for short state")
	}
	if _, err := m.ResidualAt(res.Voltage, clamped[:3]); err == nil {
		t.Fatal("expected length error for short clamp mask")
	}
	if _, err := m.ResidualAt(res.Voltage, nil); err != nil {
		t.Fatalf("nil clamp mask must mean no clamps: %v", err)
	}
}

// TestObserverNilKeepsZeroAlloc re-states the zero-allocation contract in
// the presence of the observer field: a nil observer must not cost heap.
func TestObserverNilKeepsZeroAlloc(t *testing.T) {
	m := batchMachine(t, Config{Lanes: 30, MaxTimeNs: 500, Seed: 3})
	st := m.Engine().NewInferState()
	obs := []engine.Observation{{Index: 0, Value: 0.4}, {Index: 5, Value: -0.3}}
	if _, err := m.Engine().InferWith(st, obs, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := m.Engine().InferWith(st, obs, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-observer InferWith allocated %v per op, want 0", allocs)
	}
}
