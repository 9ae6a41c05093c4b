package ising

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dsgl/internal/engine"
	"dsgl/internal/mat"
	"dsgl/internal/rng"
)

// randomModel builds a seeded random coupling graph (symmetric, density p)
// small enough for exhaustive GroundState reference.
func randomModel(t *testing.T, n int, p float64, seed uint64) *Model {
	t.Helper()
	r := rng.New(seed)
	j := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for k := i + 1; k < n; k++ {
			if r.Float64() < p {
				v := r.NormScaled(0, 1)
				j.Set(i, k, v)
				j.Set(k, i, v)
			}
		}
	}
	return denseModel(t, j, make([]float64, n))
}

func TestNewModelCSRValidation(t *testing.T) {
	b := mat.NewBuilder(3, 3)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	w := b.Build()
	if _, err := NewModelCSR(w, make([]float64, 3)); err != nil {
		t.Fatalf("valid symmetric W rejected: %v", err)
	}
	if _, err := NewModelCSR(w, make([]float64, 2)); err == nil {
		t.Fatal("h length mismatch must error")
	}
	asym := mat.NewBuilder(3, 3)
	asym.Add(0, 1, 1)
	asym.Add(1, 0, 2)
	if _, err := NewModelCSR(asym.Build(), make([]float64, 3)); err == nil {
		t.Fatal("asymmetric W must error")
	}
	diag := mat.NewBuilder(2, 2)
	diag.Add(0, 0, 1)
	if _, err := NewModelCSR(diag.Build(), make([]float64, 2)); err == nil {
		t.Fatal("non-zero diagonal must error")
	}
	rect := &mat.CSR{Rows: 2, Cols: 3, RowPtr: []int{0, 0, 0}}
	if _, err := NewModelCSR(rect, make([]float64, 2)); err == nil {
		t.Fatal("non-square W must error")
	}
	// Each row's columns must be in range and strictly increasing, and the
	// error names the row. A mirror check alone passes the duplicated
	// (0,1) below against its one stored mirror, though W sums to 2 one
	// way and 1 the other.
	csr := func(rowPtr, colIdx []int) *mat.CSR {
		n := len(rowPtr) - 1
		val := make([]float64, len(colIdx))
		for p := range val {
			val[p] = 1
		}
		return &mat.CSR{Rows: n, Cols: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	}
	malformed := []struct {
		name string
		w    *mat.CSR
		row  int
	}{
		{"duplicate column", csr([]int{0, 2, 3}, []int{1, 1, 0}), 0},
		{"unsorted symmetric row", csr([]int{0, 2, 3, 4}, []int{2, 1, 0, 0}), 0},
		{"column past the end", csr([]int{0, 1, 2}, []int{1, 2}), 1},
		{"negative column", csr([]int{0, 1, 1}, []int{-1}), 0},
	}
	for _, c := range malformed {
		_, err := NewModelCSR(c.w, make([]float64, c.w.Rows))
		if want := fmt.Sprintf("W row %d:", c.row); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one naming row %d", c.name, err, c.row)
		}
	}
}

// TestModelRejectsNonFinite: NaN and ±Inf couplings or fields are refused
// at construction, with an error naming the entry — including NaN in W,
// which never equals its mirror and so must not be reported as asymmetry.
func TestModelRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	csr := func(v01, v10 float64) *mat.CSR {
		return &mat.CSR{Rows: 2, Cols: 2, RowPtr: []int{0, 1, 2}, ColIdx: []int{1, 0}, Val: []float64{v01, v10}}
	}
	cases := []struct {
		name  string
		build func() (*Model, error)
		want  string
	}{
		{"W +Inf", func() (*Model, error) { return NewModelCSR(csr(inf, inf), []float64{0, 0}) }, "W[0][1] = +Inf is not finite"},
		{"W -Inf", func() (*Model, error) { return NewModelCSR(csr(1, -inf), []float64{0, 0}) }, "W[1][0] = -Inf is not finite"},
		{"W NaN", func() (*Model, error) { return NewModelCSR(csr(nan, nan), []float64{0, 0}) }, "W[0][1] = NaN is not finite"},
		{"W ok, h NaN", func() (*Model, error) { return NewModelCSR(csr(1, 1), []float64{0, nan}) }, "h[1] = NaN is not finite"},
		{"W ok, h -Inf", func() (*Model, error) { return NewModelCSR(csr(1, 1), []float64{-inf, 0}) }, "h[0] = -Inf is not finite"},
		{"W ok, h +Inf", func() (*Model, error) { return NewModelCSR(csr(1, 1), []float64{inf, 0}) }, "h[0] = +Inf is not finite"},
	}
	for _, c := range cases {
		m, err := c.build()
		if err == nil {
			t.Errorf("%s: accepted (model %+v), want an error", c.name, m)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name the entry (%q)", c.name, err, c.want)
		}
	}
}

// TestModelEnergySparseMatchesDense: the CSR Hamiltonian must agree with a
// direct dense evaluation of Eq. 1 over random asymmetric couplings.
func TestModelEnergySparseMatchesDense(t *testing.T) {
	r := rng.New(13)
	n := 9
	j := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if i != k && r.Float64() < 0.6 {
				j.Set(i, k, r.NormScaled(0, 1))
			}
		}
	}
	h := make([]float64, n)
	r.FillNorm(h, 0, 1)
	m := denseModel(t, j, h)
	s := make([]int8, n)
	for trial := 0; trial < 20; trial++ {
		for i := range s {
			if r.Float64() < 0.5 {
				s[i] = -1
			} else {
				s[i] = 1
			}
		}
		var want float64
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				if i != k {
					want -= j.At(i, k) * float64(s[i]) * float64(s[k])
				}
			}
			want -= h[i] * float64(s[i])
		}
		if got := m.Energy(s); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: sparse energy %g, dense %g", trial, got, want)
		}
	}
}

func TestNewSolverRejectsUnknownDynamics(t *testing.T) {
	m := randomModel(t, 6, 0.5, 1)
	if _, err := NewSolver(m, Dynamics("quantum"), 1); err == nil {
		t.Fatal("unknown dynamics must error")
	}
}

// TestMetropolisGeometricReachesGroundState: under a geometric cooling
// schedule the Metropolis solver must hit the exhaustive GroundState
// optimum on small random instances — seeded, so the check is
// deterministic.
func TestMetropolisGeometricReachesGroundState(t *testing.T) {
	for _, seed := range []uint64{3, 17, 42} {
		m := randomModel(t, 10, 0.5, seed)
		_, wantE, err := m.GroundState()
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSolver(m, MetropolisDynamics, seed)
		if err != nil {
			t.Fatal(err)
		}
		run, err := engine.NewOpt(s).SolveFrom(engine.GeometricSchedule(300, 2, 0.01), s.BaseSeed(), 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(run.Best.Energy-wantE) > 1e-9 {
			t.Errorf("seed %d: metropolis best %g, ground state %g", seed, run.Best.Energy, wantE)
		}
	}
}

// TestSolverDynamicsAllFindGoodStates: every selectable dynamics must land
// within a quality threshold of the exhaustive optimum on a small instance.
func TestSolverDynamicsAllFindGoodStates(t *testing.T) {
	m := randomModel(t, 12, 0.5, 7)
	_, wantE, err := m.GroundState()
	if err != nil {
		t.Fatal(err)
	}
	// Ground energies are negative; "within 90%" means at most 10% above.
	for _, dyn := range SolverDynamics() {
		s, err := NewSolver(m, dyn, 11)
		if err != nil {
			t.Fatal(err)
		}
		run, err := engine.NewOpt(s).SolveFrom(engine.GeometricSchedule(60, 2, 0.05), s.BaseSeed(), 6, 3)
		if err != nil {
			t.Fatalf("%s: %v", dyn, err)
		}
		if run.Best.Energy > 0.85*wantE {
			t.Errorf("%s: best energy %g too far above ground state %g", dyn, run.Best.Energy, wantE)
		}
		if got := m.Energy(run.Best.Spins); got != run.Best.Energy {
			t.Errorf("%s: reported energy %g != recomputed %g", dyn, run.Best.Energy, got)
		}
	}
}

// TestSolverWorkerBitIdentity: the multi-restart fan-out must be
// bit-identical across worker counts for every dynamics.
func TestSolverWorkerBitIdentity(t *testing.T) {
	m := randomModel(t, 16, 0.4, 23)
	sched := engine.AdaptiveSchedule(20, 2, 0.05, 3, 0.5)
	for _, dyn := range SolverDynamics() {
		var ref *engine.OptRun
		for _, workers := range []int{1, 2, 4} {
			s, err := NewSolver(m, dyn, 5)
			if err != nil {
				t.Fatal(err)
			}
			run, err := engine.NewOpt(s).SolveFrom(sched, s.BaseSeed(), 6, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", dyn, workers, err)
			}
			if ref == nil {
				ref = run
				continue
			}
			if !reflect.DeepEqual(run.Energies, ref.Energies) {
				t.Errorf("%s workers=%d: energies %v != workers=1 %v", dyn, workers, run.Energies, ref.Energies)
			}
			if run.BestRestart != ref.BestRestart || !reflect.DeepEqual(run.Best.Spins, ref.Best.Spins) {
				t.Errorf("%s workers=%d: best state differs from workers=1", dyn, workers)
			}
		}
	}
}

// TestSolverObserverTrace: the best-energy observer must see a
// non-increasing trace whose floor matches the restart's reported energy
// or better (the observer samples checkpoints; the solver may keep a best
// from any of them).
func TestSolverObserverTrace(t *testing.T) {
	m := randomModel(t, 10, 0.5, 9)
	for _, dyn := range SolverDynamics() {
		s, err := NewSolver(m, dyn, 3)
		if err != nil {
			t.Fatal(err)
		}
		e := engine.NewOpt(s)
		st := e.NewSolveState()
		var trace engine.BestEnergyTrace
		trace.Reset()
		st.SetObserver(trace.Observer())
		sched := engine.GeometricSchedule(30, 2, 0.05)
		res, err := e.SolveWith(st, sched, 3)
		if err != nil {
			t.Fatalf("%s: %v", dyn, err)
		}
		if len(trace.Trace) != sched.Steps {
			t.Fatalf("%s: observer fired %d times, want %d", dyn, len(trace.Trace), sched.Steps)
		}
		for i := 1; i < len(trace.Trace); i++ {
			if trace.Trace[i] > trace.Trace[i-1] {
				t.Fatalf("%s: trace increases at %d", dyn, i)
			}
		}
		if res.Energy > trace.Best+1e-9 {
			t.Errorf("%s: reported best %g worse than observed floor %g", dyn, res.Energy, trace.Best)
		}
	}
}

// ladderCounter is a Solver that records every distinct ladder the engine
// hands it.
type ladderCounter struct {
	*Solver
	mu      sync.Mutex
	ladders map[*engine.Ladder]bool
}

func (c *ladderCounter) RunSolve(st *engine.SolveState, l *engine.Ladder) (*engine.OptResult, error) {
	c.mu.Lock()
	c.ladders[l] = true
	c.mu.Unlock()
	return c.Solver.RunSolve(st, l)
}

// TestSolverPlanIsScheduleOnly: one ladder compile serves all restarts of
// a non-adaptive batch.
func TestSolverPlanIsScheduleOnly(t *testing.T) {
	m := randomModel(t, 8, 0.5, 2)
	s, err := NewSolver(m, MetropolisDynamics, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := &ladderCounter{Solver: s, ladders: map[*engine.Ladder]bool{}}
	e := engine.NewOpt(c)
	if _, err := e.SolveFrom(engine.GeometricSchedule(10, 2, 0.05), e.BaseSeed(), 8, 4); err != nil {
		t.Fatal(err)
	}
	if len(c.ladders) != 1 {
		t.Errorf("8 restarts ran under %d ladders, want 1", len(c.ladders))
	}
}

// gridModel builds a symmetric model over a ring of n spins with the given
// coupling on every ring edge and field h on every spin.
func gridModel(t *testing.T, n int, w, h float64) *Model {
	t.Helper()
	b := mat.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		b.Add(i, j, w)
		b.Add(j, i, w)
	}
	hs := make([]float64, n)
	for i := range hs {
		hs[i] = h
	}
	m, err := NewModelCSR(b.Build(), hs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAcceptGrid pins which models Metropolis runs on integer fields and
// their geometry: the grid step q is the largest power of two dividing
// every entry, K the largest row sum in steps of q.
func TestAcceptGrid(t *testing.T) {
	cases := []struct {
		name    string
		m       *Model
		inv     float64
		k       int
		offGrid bool
	}{
		{"unit ring", gridModel(t, 6, -1, 0), 0.5, 2, false},
		{"ring with field, K = N-1", gridModel(t, 6, 1, 3), 0.5, 5, false},
		{"K = N", gridModel(t, 6, 1, 4), 0, 0, true},
		{"quarter step", gridModel(t, 6, -0.25, 0.5), 2, 4, false},
		{"even weights", gridModel(t, 8, 6, 0), 0.25, 6, false},
		{"continuous weight", gridModel(t, 6, 0.1, 0), 0, 0, true},
		{"large K = N-1", gridModel(t, 1<<12+1, 1<<11-1, 2), 0.5, 1 << 12, false},
		{"2Kq overflows", gridModel(t, 6, 0x1p1022, 0), 0, 0, true},
		{"1/(2q) overflows", gridModel(t, 6, 0x1p-1074, 0), 0, 0, true},
		{"all zero", gridModel(t, 6, 0, 0), 0, 0, true},
		{"NaN field", &Model{N: 1, W: &mat.CSR{Rows: 1, Cols: 1, RowPtr: []int{0, 0}}, H: []float64{math.NaN()}}, 0, 0, true},
	}
	for _, c := range cases {
		inv, k := acceptGrid(c.m)
		if c.offGrid {
			if inv != 0 {
				t.Errorf("%s: on the grid (1/(2q) = %g, K = %d), want the float loop", c.name, inv, k)
			}
			continue
		}
		if inv != c.inv || k != c.k {
			t.Errorf("%s: 1/(2q) = %g, K = %d; want %g, %d", c.name, inv, k, c.inv, c.k)
		}
	}
}

// TestAcceptTableMatchesDirectExp: the integer loop and its acceptance
// thresholds must reproduce the float loop with the direct math.Exp call
// bit for bit: after every sweep the same spins (so the same flips), and
// after every restart the same result (spins, energy, best step) and the
// same RNG state (so the same number of draws). It covers MaxCut's unit
// step and a quarter-step QUBO with fields, every schedule kind plus a
// linear one from T0 = +Inf whose ladder is NaN after its first step, and
// the largest K the grid admits, N-1, on a ring of 4,097 spins. Each
// restart runs the backend's RunSolve on the ladder directly, as the
// engine would: the engine's schedule gate refuses the +Inf schedule, and
// the two loops must still agree on its ladder.
func TestAcceptTableMatchesDirectExp(t *testing.T) {
	r := rng.New(5)
	n := 40
	jb := mat.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			j := r.Intn(n)
			if j != i {
				v := float64(r.Intn(5)-2) * 0.25
				jb.Add(i, j, v)
				jb.Add(j, i, v)
			}
		}
	}
	h := make([]float64, n)
	for i := range h {
		h[i] = float64(r.Intn(9)-4) * 0.25
	}
	quarter, err := NewModelCSR(jb.Build(), h)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		m    *Model
	}{
		{"unit", gridModel(t, 50, -1, 0)},
		{"quarter", quarter},
		{"K = N-1", gridModel(t, 1<<12+1, 1<<11-1, 2)},
	}
	for _, c := range cases {
		grid, err := NewSolver(c.m, MetropolisDynamics, 1)
		if err != nil {
			t.Fatal(err)
		}
		if grid.grid == nil {
			t.Fatalf("%s: model unexpectedly off the grid", c.name)
		}
		float := *grid
		float.grid = nil
		gs, fs := engine.NewOpt(grid).NewSolveState(), engine.NewOpt(&float).NewSolveState()
		var gTrace, fTrace []uint64
		gs.SetObserver(spinTrace(&gTrace, gs))
		fs.SetObserver(spinTrace(&fTrace, fs))
		scheds := []engine.Schedule{
			engine.GeometricSchedule(60, 2, 0.05),
			engine.LinearSchedule(60, 2, 0.05),
			engine.AdaptiveSchedule(60, 2, 0.05, 3, 0.5),
			engine.LinearSchedule(60, math.Inf(1), 0.05),
		}
		for _, sched := range scheds {
			for restart := 0; restart < 4; restart++ {
				s := sched.ForRestart(restart)
				seed := uint64(11 + restart)
				gTrace, fTrace = gTrace[:0], fTrace[:0]
				a, err := runLadder(grid, gs, s, seed)
				if err != nil {
					t.Fatal(err)
				}
				b, err := runLadder(&float, fs, s, seed)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("%s, %s from T0 = %g, restart %d", c.name, s.Kind, s.T0, restart)
				if !reflect.DeepEqual(gTrace, fTrace) {
					t.Fatalf("%s: spins after each sweep differ", where)
				}
				if !reflect.DeepEqual(a, b) || math.Float64bits(a.Energy) != math.Float64bits(b.Energy) {
					t.Fatalf("%s: integer loop %+v, float loop %+v", where, a, b)
				}
				if gs.RNG != fs.RNG {
					t.Fatalf("%s: the loops drew different numbers of values", where)
				}
			}
		}
	}
}

// runLadder is one restart as the engine runs it, without the engine's
// schedule gate: compile s's ladder, reseed the state, run the backend.
func runLadder(sv *Solver, st *engine.SolveState, s engine.Schedule, seed uint64) (*engine.OptResult, error) {
	l := &engine.Ladder{Sched: s, Temps: make([]float64, s.Steps)}
	for k := range l.Temps {
		l.Temps[k] = s.At(k)
	}
	st.RNG.Reseed(seed)
	return sv.RunSolve(st, l)
}

// fuzzGridModel decodes a symmetric model on the grid of step q = 2^(exp
// mod 8) from data: data[0] picks N in [1, 24], the next N bytes the
// fields, and each later byte triple (i, j, v) adds a coupling v between
// spins i and j. Every decoded value is an integer in [-3, 3] times q, so
// every entry, sums of duplicates included, is an exact multiple of q.
func fuzzGridModel(t *testing.T, data []byte, exp int8) (*Model, float64) {
	n := 1 + int(data[0])%24
	data = data[1:]
	q := math.Ldexp(1, int(exp)%8)
	val := func(b byte) float64 { return float64(int(b)%7-3) * q }
	h := make([]float64, n)
	for i := 0; i < n && i < len(data); i++ {
		h[i] = val(data[i])
	}
	data = data[min(n, len(data)):]
	j := mat.NewDense(n, n)
	for ; len(data) >= 3; data = data[3:] {
		a, b := int(data[0])%n, int(data[1])%n
		if a == b {
			continue
		}
		v := j.At(a, b) + val(data[2])
		j.Set(a, b, v)
		j.Set(b, a, v)
	}
	m, err := NewModelCSR(mat.FromDense(j, 0), h)
	if err != nil {
		t.Fatalf("decoded model rejected: %v", err)
	}
	return m, q
}

// FuzzMetropolisGridMatchesFloat holds the on-grid Metropolis loop to the
// float loop on decoded models, as TestAcceptTableMatchesDirectExp does on
// its fixed ones: one restart of each, under a geometric and a linear
// schedule scaled to the grid step, must flip the same spins in every
// sweep, return the same result (energy bits included) and leave the RNG
// in the same state. Models acceptGrid keeps off the grid are skipped.
func FuzzMetropolisGridMatchesFloat(f *testing.F) {
	ring := []byte{5, 3, 3, 3, 3, 3, 3, 0, 1, 2, 1, 2, 2, 2, 3, 2, 3, 4, 2, 4, 5, 2, 5, 0, 2}
	f.Add(ring, int8(0), uint64(1))
	f.Add(append([]byte{10, 0, 6, 1, 5, 2, 4, 3, 3, 0, 6}, 0, 9, 5, 1, 8, 1, 2, 7, 6, 3, 3, 0), int8(-2), uint64(7))
	f.Add([]byte{23, 6, 6, 6, 0, 0, 0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 0, 5, 6, 7, 8, 1, 9, 10, 5}, int8(5), uint64(3))
	f.Add([]byte{3, 4, 2, 3, 3, 0, 1, 5}, int8(-7), uint64(2))
	f.Fuzz(func(t *testing.T, data []byte, exp int8, seed uint64) {
		if len(data) == 0 {
			return
		}
		m, q := fuzzGridModel(t, data, exp)
		grid, err := NewSolver(m, MetropolisDynamics, 1)
		if err != nil {
			t.Fatal(err)
		}
		if grid.grid == nil {
			return
		}
		float := *grid
		float.grid = nil
		ge, fe := engine.NewOpt(grid), engine.NewOpt(&float)
		gs, fs := ge.NewSolveState(), fe.NewSolveState()
		var gTrace, fTrace []uint64
		gs.SetObserver(spinTrace(&gTrace, gs))
		fs.SetObserver(spinTrace(&fTrace, fs))
		for _, sched := range []engine.Schedule{
			engine.GeometricSchedule(16, 4*q, q/8),
			engine.LinearSchedule(16, 4*q, q/8),
		} {
			gTrace, fTrace = gTrace[:0], fTrace[:0]
			a, err := ge.SolveWith(gs, sched, seed)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fe.SolveWith(fs, sched, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gTrace, fTrace) {
				t.Fatalf("%s: spins after each sweep differ", sched.Kind)
			}
			if !reflect.DeepEqual(a, b) || math.Float64bits(a.Energy) != math.Float64bits(b.Energy) {
				t.Fatalf("%s: integer loop %+v, float loop %+v", sched.Kind, a, b)
			}
			if gs.RNG != fs.RNG {
				t.Fatalf("%s: the loops drew different numbers of values", sched.Kind)
			}
		}
	})
}

// spinTrace returns an observer that appends an FNV-1a hash of st's spins
// to *trace at every sweep.
func spinTrace(trace *[]uint64, st *engine.SolveState) engine.StepObserver {
	return func(engine.StepInfo) {
		h := uint64(14695981039346656037)
		for _, s := range st.Spins {
			h = (h ^ uint64(uint8(s))) * 1099511628211
		}
		*trace = append(*trace, h)
	}
}

// TestAcceptThreshold: a 53-bit draw m accepts against the integer
// threshold ⌈p·2⁵³⌉ exactly when Float64's u = m·2⁻⁵³ satisfies u < p.
// Checked at m = t−1, t, t+1 around each threshold t, for edge
// probabilities and for every threshold of the default OptOptions ladder
// (geometric, 200 steps from 2 to 0.05, maxcut-g800's) at grid steps q = 1
// and q = ¼ and every e up to 255 (maxcut-g800's K is 21).
func TestAcceptThreshold(t *testing.T) {
	check := func(p float64, th uint64) {
		t.Helper()
		for _, m := range []uint64{th - 1, th, th + 1} {
			if m >= 1<<53 { // also th-1 when th is 0
				continue
			}
			if got, want := m < th, float64(m)/(1<<53) < p; got != want {
				t.Fatalf("p = %g (threshold %d), m = %d: integer test %v, float test %v", p, th, m, got, want)
			}
		}
	}
	for _, c := range []struct {
		p  float64
		th uint64
	}{
		{0, 0},
		{0x1p-1074, 1},
		{0x1p-53, 1},
		{0.5, 1 << 52},
		{1 - 0x1p-53, 1<<53 - 1},
		{1, 1 << 53},
		{math.NaN(), 0},
	} {
		if got := acceptThreshold(c.p); got != c.th {
			t.Errorf("acceptThreshold(%g) = %d, want %d", c.p, got, c.th)
		}
		check(c.p, c.th)
	}
	sched := engine.GeometricSchedule(200, 2, 0.05)
	row := make([]uint64, 256)
	for _, twoQ := range []float64{2, 0.5} {
		for k := 0; k < sched.Steps; k++ {
			temp := sched.At(k)
			fillThresholds(row, twoQ, temp)
			for e, th := range row {
				check(math.Exp(-(float64(e)*twoQ)/temp), th)
			}
		}
	}
}
