package ising

import (
	"math"
	"testing"

	"dsgl/internal/engine"
	"dsgl/internal/mat"
	"dsgl/internal/rng"
)

// denseModel builds the model of a dense coupling matrix j (square, zero
// diagonal) through NewModelCSR, symmetrizing it into W = J + Jᵀ.
func denseModel(t *testing.T, j *mat.Dense, h []float64) *Model {
	t.Helper()
	w := mat.NewDense(j.Rows, j.Cols)
	for i := 0; i < j.Rows; i++ {
		for k := 0; k < j.Cols; k++ {
			w.Set(i, k, j.At(i, k)+j.At(k, i))
		}
	}
	m, err := NewModelCSR(mat.FromDense(w, 0), h)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func ferroModel(t *testing.T, n int, w float64) *Model {
	t.Helper()
	j := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for k := i + 1; k < n; k++ {
			j.Set(i, k, w)
			j.Set(k, i, w)
		}
	}
	return denseModel(t, j, make([]float64, n))
}

// randomGraph draws a seeded symmetric weighted adjacency matrix: each pair
// is an edge with probability p, weight uniform in [lo, 1).
func randomGraph(n int, p, lo float64, seed uint64) *mat.Dense {
	r := rng.New(seed)
	w := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for k := i + 1; k < n; k++ {
			if r.Float64() < p {
				v := r.Uniform(lo, 1)
				w.Set(i, k, v)
				w.Set(k, i, v)
			}
		}
	}
	return w
}

// maxCutModel builds the Ising model whose ground state is the max cut of
// the weighted graph w (symmetric, zero diagonal): J = -W, no field.
func maxCutModel(t *testing.T, w *mat.Dense) *Model {
	t.Helper()
	j := mat.NewDense(w.Rows, w.Cols)
	for i, v := range w.Data {
		j.Data[i] = -v
	}
	return denseModel(t, j, make([]float64, w.Rows))
}

// cutValue is the weight of the cut spins s induce on w: the sum of w_ij
// over edges whose endpoints have opposite spins.
func cutValue(w *mat.Dense, s []int8) float64 {
	var cut float64
	for i := 0; i < w.Rows; i++ {
		for j := i + 1; j < w.Cols; j++ {
			if s[i] != s[j] {
				cut += w.At(i, j)
			}
		}
	}
	return cut
}

// optimalCut is the max cut of w by exhaustive search over m's ground state.
func optimalCut(t *testing.T, w *mat.Dense, m *Model) float64 {
	t.Helper()
	s, _, err := m.GroundState()
	if err != nil {
		t.Fatal(err)
	}
	return cutValue(w, s)
}

// solveOnce runs one seeded restart of dyn on m through the engine and
// returns the restart's detached result plus a copy of the final carrier
// state (voltages for BRIM, phases for OIM).
func solveOnce(t *testing.T, m *Model, dyn Dynamics, sched engine.Schedule, seed uint64) (*engine.OptResult, []float64) {
	t.Helper()
	s, err := NewSolver(m, dyn, seed)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.NewOpt(s)
	st := e.NewSolveState()
	res, err := e.SolveWith(st, sched, seed)
	if err != nil {
		t.Fatalf("%s: %v", dyn, err)
	}
	return res.Detach(), append([]float64(nil), st.X...)
}

func TestFerromagnetGroundState(t *testing.T) {
	m := ferroModel(t, 4, 1)
	s, e, err := m.GroundState()
	if err != nil {
		t.Fatal(err)
	}
	// All-aligned states minimize a ferromagnet.
	for i := 1; i < 4; i++ {
		if s[i] != s[0] {
			t.Fatalf("ferromagnet ground state not aligned: %v", s)
		}
	}
	// Energy: -(J_ij + J_ji) summed over 6 pairs = -12.
	if math.Abs(e-(-12)) > 1e-12 {
		t.Fatalf("ground energy %g, want -12", e)
	}
}

func TestFieldBreaksTie(t *testing.T) {
	j := mat.NewDense(2, 2)
	h := []float64{0.5, 0.5}
	m := denseModel(t, j, h)
	s, _, err := m.GroundState()
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 1 || s[1] != 1 {
		t.Fatalf("positive field should align spins up: %v", s)
	}
}

func TestEnergyConsistency(t *testing.T) {
	r := rng.New(3)
	n := 6
	j := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if i != k {
				j.Set(i, k, r.NormScaled(0, 1))
			}
		}
	}
	h := make([]float64, n)
	r.FillNorm(h, 0, 1)
	m := denseModel(t, j, h)
	// Flipping one spin changes energy by the analytic local field.
	s := make([]int8, n)
	for i := range s {
		if r.Float64() < 0.5 {
			s[i] = -1
		} else {
			s[i] = 1
		}
	}
	e0 := m.Energy(s)
	flip := 2
	var local float64
	for k := 0; k < n; k++ {
		if k != flip {
			local += (j.At(flip, k) + j.At(k, flip)) * float64(s[k])
		}
	}
	local += h[flip]
	s[flip] = -s[flip]
	e1 := m.Energy(s)
	// ΔE = 2 σ_flip_old (Σ (J+Jᵀ) σ + h).
	want := e0 + 2*float64(-s[flip])*local
	if math.Abs(e1-want) > 1e-9 {
		t.Fatalf("flip energy %g, want %g", e1, want)
	}
}

// TestCutValue pins the max-cut lowering on a hand-checked path graph:
// under J = -W the Ising energy is H = 2 Σ_{i<j} w_ij σ_i σ_j, so every
// cut edge contributes -2w and every uncut edge +2w.
func TestCutValue(t *testing.T) {
	w := mat.NewDense(3, 3)
	w.Set(0, 1, 2)
	w.Set(1, 0, 2)
	w.Set(1, 2, 3)
	w.Set(2, 1, 3)
	m := maxCutModel(t, w)
	const total = 5
	for _, tc := range []struct {
		s   []int8
		cut float64
	}{
		{[]int8{1, -1, 1}, 5},
		{[]int8{1, 1, 1}, 0},
		{[]int8{1, 1, -1}, 3},
	} {
		if got := cutValue(w, tc.s); got != tc.cut {
			t.Fatalf("cut of %v = %g, want %g", tc.s, got, tc.cut)
		}
		if got, want := m.Energy(tc.s), 2*(total-tc.cut)-2*tc.cut; got != want {
			t.Fatalf("energy of %v = %g, want %g", tc.s, got, want)
		}
	}
}

func TestMaxCutModelGroundStateIsMaxCut(t *testing.T) {
	// Small random graph: brute-force max cut must match the Ising ground
	// state of the max-cut lowering.
	n := 8
	w := randomGraph(n, 0.5, 0.1, 11)
	got := optimalCut(t, w, maxCutModel(t, w))

	best := 0.0
	tmp := make([]int8, n)
	for bits := 0; bits < 1<<uint(n); bits++ {
		for i := 0; i < n; i++ {
			if bits&(1<<uint(i)) != 0 {
				tmp[i] = 1
			} else {
				tmp[i] = -1
			}
		}
		if c := cutValue(w, tmp); c > best {
			best = c
		}
	}
	if math.Abs(got-best) > 1e-9 {
		t.Fatalf("ground-state cut %g != brute-force max cut %g", got, best)
	}
}

func TestBRIMAnnealFindsGoodCut(t *testing.T) {
	// One BRIM restart should find a near-optimal max cut on a small graph.
	w := randomGraph(12, 0.4, 0.2, 5)
	m := maxCutModel(t, w)
	res, _ := solveOnce(t, m, BRIMDynamics, engine.GeometricSchedule(50, 2, 0.05), 99)
	got, best := cutValue(w, res.Spins), optimalCut(t, w, m)
	if got < 0.85*best {
		t.Fatalf("BRIM cut %g below 85%% of optimum %g", got, best)
	}
}

func TestBRIMPolarizes(t *testing.T) {
	// With the flip escapes cooled to nothing, the bistable nodes must end
	// on the rails.
	m := ferroModel(t, 6, 0.5)
	_, x := solveOnce(t, m, BRIMDynamics, engine.GeometricSchedule(100, 1, 1e-12), 2)
	for i, v := range x {
		if math.Abs(math.Abs(v)-1) > 1e-6 {
			t.Fatalf("BRIM node %d did not polarize: %g", i, v)
		}
	}
}

func TestQuantize(t *testing.T) {
	s := make([]int8, 3)
	QuantizeInto(s, []float64{-0.3, 0, 0.7})
	if s[0] != -1 || s[1] != 1 || s[2] != 1 {
		t.Fatalf("QuantizeInto = %v", s)
	}
}

func TestGroundStateLargeNErrors(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		wantErr bool
	}{
		{"small ok", 4, false},
		{"at limit ok", 12, false},
		{"just over limit", 25, true},
		{"far over limit", 64, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var m *Model
			if c.wantErr {
				// GroundState gates on N before touching W, so an inflated
				// N on a small model exercises the guard without building
				// an impossible matrix.
				m = ferroModel(t, 4, 1)
				m.N = c.n
			} else {
				m = ferroModel(t, c.n, 1)
			}
			s, _, err := m.GroundState()
			if c.wantErr {
				if err == nil {
					t.Fatalf("N=%d: expected error, got state %v", c.n, s)
				}
				if s != nil {
					t.Fatalf("N=%d: error must not return a state", c.n)
				}
				return
			}
			if err != nil {
				t.Fatalf("N=%d: unexpected error %v", c.n, err)
			}
			if len(s) != m.N {
				t.Fatalf("N=%d: state length %d", c.n, len(s))
			}
		})
	}
}

func TestBRIMDeterministicWithSeed(t *testing.T) {
	m := ferroModel(t, 6, 0.5)
	sched := engine.GeometricSchedule(25, 2, 0.05)
	r1, x1 := solveOnce(t, m, BRIMDynamics, sched, 7)
	r2, x2 := solveOnce(t, m, BRIMDynamics, sched, 7)
	if r1.Energy != r2.Energy {
		t.Fatal("same seed must reproduce the same annealing result")
	}
	for i := range x1 {
		if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
			t.Fatalf("same seed diverges at node %d voltage: %v vs %v", i, x1[i], x2[i])
		}
	}
}

func TestMetropolisFindsGroundStateSmall(t *testing.T) {
	r := rng.New(31)
	n := 10
	j := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for k := i + 1; k < n; k++ {
			if r.Float64() < 0.5 {
				v := r.NormScaled(0, 1)
				j.Set(i, k, v)
				j.Set(k, i, v)
			}
		}
	}
	m := denseModel(t, j, make([]float64, n))
	_, wantE, err := m.GroundState()
	if err != nil {
		t.Fatal(err)
	}
	res, _ := solveOnce(t, m, MetropolisDynamics, engine.GeometricSchedule(300, 2, 0.01), 5)
	if res.Energy > wantE+1e-9 && res.Energy > wantE*0.95 {
		t.Fatalf("Metropolis energy %g, ground state %g", res.Energy, wantE)
	}
}

// TestMetropolisEnergyBookkeeping: the sweep tracks the best state by
// incremental ΔE accounting. The kept best must be at least as good as
// every state the per-sweep observer saw, and its reported energy must
// agree with a fresh Energy evaluation — on a model with fields, where
// the ΔE formula's h term matters.
func TestMetropolisEnergyBookkeeping(t *testing.T) {
	r := rng.New(7)
	n := 8
	j := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if i != k {
				j.Set(i, k, r.NormScaled(0, 0.5))
			}
		}
	}
	h := make([]float64, n)
	r.FillNorm(h, 0, 0.3)
	m := denseModel(t, j, h)
	s, err := NewSolver(m, MetropolisDynamics, 9)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.NewOpt(s)
	st := e.NewSolveState()
	seen := math.Inf(1)
	st.SetObserver(func(si engine.StepInfo) { seen = math.Min(seen, si.EnergyFn()) })
	res, err := e.SolveWith(st, engine.GeometricSchedule(100, 2, 0.01), 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Energy(res.Spins); math.Abs(got-res.Energy) > 1e-9 {
		t.Fatalf("reported energy %g, recomputed %g", res.Energy, got)
	}
	if res.Energy > seen+1e-9 {
		t.Fatalf("kept best %g worse than an observed state %g", res.Energy, seen)
	}
}

func TestMetropolisMaxCutComparableToBRIM(t *testing.T) {
	w := randomGraph(14, 0.4, 0.2, 12)
	m := maxCutModel(t, w)
	mres, _ := solveOnce(t, m, MetropolisDynamics, engine.GeometricSchedule(400, 2, 0.01), 3)
	bres, _ := solveOnce(t, m, BRIMDynamics, engine.GeometricSchedule(75, 2, 0.05), 4)
	mcut, bcut := cutValue(w, mres.Spins), cutValue(w, bres.Spins)
	best := optimalCut(t, w, m)
	if mcut < 0.9*best {
		t.Fatalf("Metropolis cut %g below 90%% of optimum %g", mcut, best)
	}
	if bcut < 0.85*best {
		t.Fatalf("BRIM cut %g below 85%% of optimum %g", bcut, best)
	}
}
