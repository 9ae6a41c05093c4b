package ising

import (
	"fmt"
	"math"
	"math/bits"

	"dsgl/internal/engine"
)

// Dynamics selects which Ising-machine dynamics a Solver anneals with.
type Dynamics string

const (
	// BRIMDynamics anneals capacitor voltages on the bistable
	// resistively-coupled circuit, with random-flip escapes scaled by the
	// schedule's control ladder.
	BRIMDynamics Dynamics = "brim"
	// MetropolisDynamics runs the digital simulated annealer; the control
	// ladder is the temperature per sweep.
	MetropolisDynamics Dynamics = "metropolis"
	// OIMDynamics integrates the oscillator phase flow with the SHIL
	// binarization strength ramped as the ladder cools.
	OIMDynamics Dynamics = "oim"
)

// SolverDynamics lists the selectable dynamics in stable order.
func SolverDynamics() []Dynamics {
	return []Dynamics{BRIMDynamics, MetropolisDynamics, OIMDynamics}
}

// Dynamics integration constants. A schedule "step" is one observation
// checkpoint: a Metropolis sweep, or a block of Euler sub-steps for the
// continuous dynamics — so the three dynamics interpret the same Schedule
// and produce comparably-sized energy traces.
const (
	brimDt       = 0.05 // ns per Euler step
	brimSubsteps = 40   // Euler steps per schedule step (2 ns per flip event)
	brimFlipFrac = 0.25 // flip fraction at full heat (T = T0)
	brimRail     = 1.0  // capacitor voltages stay in [-brimRail, +brimRail]
	oimDt        = 0.02 // ns per Euler step
	oimSubsteps  = 25   // Euler steps per schedule step
	oimShilK     = 1.0  // SHIL strength at the cold end of the ladder
)

// Solver adapts an Ising model to the engine.OptBackend contract: one
// instance, one selected dynamics, annealed under engine-compiled schedule
// ladders with the engine's seeded multi-restart fan-out. The solver and its
// coupling network are immutable after construction; all mutable state
// lives in the per-worker SolveState, which is what makes parallel restarts
// race-free and bit-identical to a sequential loop.
type Solver struct {
	m    *Model
	dyn  Dynamics
	seed uint64
	// grid is the Metropolis model in integer units of its power-of-two
	// grid step q (see acceptGrid); nil when the model is off the grid, and
	// for the other dynamics.
	grid *intModel
}

// intModel is an on-grid model in units of q: w and h are W's entries (in
// W's CSR order) and h divided by q, so a field fᵢ = hᵢ + Σⱼ wᵢⱼσⱼ is an
// integer of magnitude at most k, and flipping spin i changes the energy
// by e·2q with e = σᵢfᵢ.
type intModel struct {
	w    []int32
	h    []int32
	k    int
	twoQ float64
}

// newIntModel converts m to units of q = 1/(2·inv). Every entry is a
// multiple of q no larger than kq, so v·inv is exact and so is twice it.
func newIntModel(m *Model, inv float64, k int) *intModel {
	g := &intModel{w: make([]int32, len(m.W.Val)), h: make([]int32, m.N), k: k, twoQ: 1 / inv}
	for p, v := range m.W.Val {
		g.w[p] = int32(2 * (v * inv))
	}
	for i, v := range m.H {
		g.h[i] = int32(2 * (v * inv))
	}
	return g
}

// NewSolver builds an OptBackend for model m under the chosen dynamics.
func NewSolver(m *Model, dyn Dynamics, seed uint64) (*Solver, error) {
	s := &Solver{m: m, dyn: dyn, seed: seed}
	switch dyn {
	case BRIMDynamics, OIMDynamics:
	case MetropolisDynamics:
		if inv, k := acceptGrid(m); inv != 0 {
			s.grid = newIntModel(m, inv, k)
		}
	default:
		return nil, fmt.Errorf("ising: unknown dynamics %q (want %s|%s|%s)",
			dyn, BRIMDynamics, MetropolisDynamics, OIMDynamics)
	}
	return s, nil
}

// Name implements engine.OptBackend.
func (s *Solver) Name() string { return "ising-" + string(s.dyn) }

// Dim implements engine.OptBackend.
func (s *Solver) Dim() int { return s.m.N }

// BaseSeed implements engine.OptBackend.
func (s *Solver) BaseSeed() uint64 { return s.seed }

// EnergyOf implements engine.OptBackend: the Ising Hamiltonian at s.
func (s *Solver) EnergyOf(spins []int8) float64 { return s.m.Energy(spins) }

// solverScratch is the per-state arena; each dynamics allocates only its
// own buffers. BRIM takes a coupling-current buffer, OIM a derivative
// buffer and its phase system, on-grid Metropolis integer fields and a
// threshold row, and off-grid Metropolis float local fields.
type solverScratch struct {
	deriv []float64
	ps    phaseSystem
	field []int32
	row   []uint64
	local []float64
}

// AttachSolveState implements engine.OptBackend.
func (s *Solver) AttachSolveState(st *engine.SolveState) {
	n := s.m.N
	sc := &solverScratch{}
	switch {
	case s.dyn == BRIMDynamics:
		sc.deriv = make([]float64, n)
	case s.dyn == OIMDynamics:
		sc.deriv, sc.ps = make([]float64, n), phaseSystem{w: s.m.W}
	case s.grid != nil:
		sc.field, sc.row = make([]int32, n), make([]uint64, s.grid.k+1)
	default:
		sc.local = make([]float64, n)
	}
	st.Scratch = sc
}

// RunSolve implements engine.OptBackend: one restart of the selected
// dynamics under the schedule's ladder. The best state seen at any
// checkpoint is kept, and its energy is recomputed from the spins at
// readout, so Res.Energy == EnergyOf(Res.Spins) holds bit-exactly — the
// identity the opt-best-energy-monotone invariant leans on.
func (s *Solver) RunSolve(st *engine.SolveState, pl *engine.Ladder) (*engine.OptResult, error) {
	switch s.dyn {
	case MetropolisDynamics:
		if s.grid != nil {
			s.runMetropolisGrid(st, pl)
		} else {
			s.runMetropolis(st, pl)
		}
	case BRIMDynamics:
		s.runBRIM(st, pl)
	case OIMDynamics:
		s.runOIM(st, pl)
	default:
		return nil, fmt.Errorf("ising: unknown dynamics %q", s.dyn)
	}
	st.Res.Energy = s.m.Energy(st.Res.Spins)
	st.Res.Steps = pl.Sched.Steps
	return &st.Res, nil
}

// observe dispatches the per-checkpoint observer with the lazy energy
// closure; cheap no-op when no observer is installed.
func observe(st *engine.SolveState, step int, t float64) {
	if st.Observer != nil {
		st.Observer(engine.StepInfo{Step: step, TimeNs: t, EnergyFn: st.EnergyFn, X: st.X})
	}
}

// randomSpins draws the restart's starting spins, one draw per spin.
func randomSpins(st *engine.SolveState) {
	for i := range st.Spins {
		if st.RNG.Float64() < 0.5 {
			st.Spins[i] = -1
		} else {
			st.Spins[i] = 1
		}
	}
}

// runMetropolis: one sweep per schedule step at ladder temperature T(k),
// for models off the grid.
func (s *Solver) runMetropolis(st *engine.SolveState, pl *engine.Ladder) {
	n := s.m.N
	sc := st.Scratch.(*solverScratch)
	randomSpins(st)
	rebuildLocal(s.m, st.Spins, sc.local)
	curE := s.m.Energy(st.Spins)
	bestE := curE
	copy(st.Res.Spins, st.Spins)
	st.Res.BestStep = 0
	for sweep, temp := range pl.Temps {
		for k := 0; k < n; k++ {
			i := st.RNG.Intn(n)
			dE := 2 * float64(st.Spins[i]) * (sc.local[i] + s.m.H[i])
			// Accept the uphill step with probability exp(-dE/T); a NaN dE
			// from an overflowed field also draws u and is rejected.
			if !(dE <= 0) && !(st.RNG.Float64() < math.Exp(-dE/temp)) {
				continue
			}
			applyFlip(s.m, st.Spins, i, sc.local)
			curE += dE
			if curE < bestE {
				bestE = curE
				copy(st.Res.Spins, st.Spins)
				st.Res.BestStep = sweep
			}
		}
		observe(st, sweep, 0)
	}
}

// runMetropolisGrid is runMetropolis for on-grid models, on integer fields
// and integer thresholds, which it fills for each sweep's temperature
// before the sweep. A proposal's e = σᵢfᵢ is dE/(2q), so e ≤ 0 is
// dE ≤ 0, and an uphill step draws the same 53 bits u = m·2⁻⁵³ that
// Float64 would and accepts exactly when m < ⌈exp(−dE/T)·2⁵³⌉, which is
// u < exp(−dE/T). e·2q is the float loop's exact dE, so every draw, flip,
// energy and best state is the one runMetropolis makes.
func (s *Solver) runMetropolisGrid(st *engine.SolveState, pl *engine.Ladder) {
	n, g := s.m.N, s.grid
	sc := st.Scratch.(*solverScratch)
	spins, f, row := st.Spins, sc.field, sc.row
	rowPtr, colIdx := s.m.W.RowPtr, s.m.W.ColIdx
	randomSpins(st)
	for i := range f {
		sum := g.h[i]
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			sum += g.w[p] * int32(spins[colIdx[p]])
		}
		f[i] = sum
	}
	curE := s.m.Energy(spins)
	bestE := curE
	copy(st.Res.Spins, spins)
	st.Res.BestStep = 0
	for sweep, temp := range pl.Temps {
		fillThresholds(row, g.twoQ, temp)
		for k := 0; k < n; k++ {
			i := int(st.RNG.Uint64() % uint64(n)) // Intn(n), inlined
			e := int32(spins[i]) * f[i]
			if e > 0 && st.RNG.Uint64()>>11 >= row[e] {
				continue
			}
			spins[i] = -spins[i]
			d := 2 * int32(spins[i])
			for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
				f[colIdx[p]] += g.w[p] * d
			}
			curE += float64(e) * g.twoQ // the float loop's exact dE
			if curE < bestE {
				bestE = curE
				copy(st.Res.Spins, spins)
				st.Res.BestStep = sweep
			}
		}
		observe(st, sweep, 0)
	}
}

// fillThresholds writes row[e] = acceptThreshold(exp(−e·2q/T)), the
// integer form of the probability of accepting an uphill step of
// dE = e·2q at temperature T, computed as the float loop computes it.
func fillThresholds(row []uint64, twoQ, temp float64) {
	for e := range row {
		dE := float64(e) * twoQ
		row[e] = acceptThreshold(math.Exp(-dE / temp))
	}
}

// acceptThreshold returns ⌈p·2⁵³⌉ for p in [0, 1], and 0 for a NaN p. For
// u = m·2⁻⁵³ with integer m, u < p holds exactly when m < p·2⁵³ (scaling
// by a power of two is exact), that is when m < ⌈p·2⁵³⌉. u < NaN never
// holds, and neither does m < 0.
func acceptThreshold(p float64) uint64 {
	if p > 0 {
		return uint64(math.Ceil(p * (1 << 53)))
	}
	return 0
}

// acceptGrid decides whether m's Metropolis energy steps fit the integer
// loop. It finds the largest power of two q that divides every W and h
// entry, and K = maxᵢ(Σⱼ|Wᵢⱼ| + |hᵢ|)/q. Local fields are then sums of
// multiples of q no larger than Kq, so every proposal's dE = 2σᵢ(localᵢ+hᵢ)
// is computed exactly, and dE/(2q) is an integer in [-K, K]. The integer
// loop computes K+1 thresholds before each sweep of N proposals, so K < N
// holds it to at most the one exponential per proposal the float loop may
// compute; K < 2³¹ keeps its fields in int32. It returns 1/(2q) and K, or
// 0, 0 when m is off the grid: no non-zero entry, K too large (a
// non-finite entry makes K NaN or +Inf), or a 1/(2q) or 2Kq that
// overflows.
func acceptGrid(m *Model) (inv float64, k int) {
	var maxRow float64
	for i := 0; i < m.N; i++ {
		row := math.Abs(m.H[i])
		for p := m.W.RowPtr[i]; p < m.W.RowPtr[i+1]; p++ {
			row += math.Abs(m.W.Val[p])
		}
		maxRow = math.Max(maxRow, row)
	}
	// q = 2^qExp. K is compared as a float against its bound whenever q
	// shrinks, before it becomes an integer, so continuous weights stop the
	// scan at their first entry and huge values cannot wrap.
	bound := float64(min(m.N, math.MaxInt32))
	qExp := math.MaxInt
	for _, vals := range [][]float64{m.W.Val, m.H} {
		for _, v := range vals {
			if v == 0 {
				continue
			}
			if e := lowBitExp(v); e < qExp {
				qExp = e
				if !(math.Ldexp(maxRow, -qExp) < bound) {
					return 0, 0
				}
			}
		}
	}
	if qExp == math.MaxInt {
		return 0, 0 // every entry is zero, so no step is ever uphill
	}
	inv = math.Ldexp(0.5, -qExp)
	if math.IsInf(inv, 0) || math.IsInf(2*maxRow, 0) {
		return 0, 0
	}
	return inv, int(math.Ldexp(maxRow, -qExp))
}

// lowBitExp returns e such that the finite, non-zero v is an odd multiple
// of 2^e: the exponent of the lowest set bit of its significand.
func lowBitExp(v float64) int {
	b := math.Float64bits(v)
	exp, mant := int(b>>52&0x7ff), b&(1<<52-1)
	if exp == 0 { // subnormal: no implicit leading bit
		return -1074 + bits.TrailingZeros64(mant)
	}
	return exp - 1075 + bits.TrailingZeros64(mant|1<<52)
}

// runBRIM: blocks of Euler integration of the coupling circuit, a
// quantized checkpoint after each block, then a random-flip escape whose
// fraction is the ladder value scaled to brimFlipFrac at full heat. A step
// drives each capacitor with dσᵢ/dt = Σⱼ Wᵢⱼσⱼ + hᵢ (the linear
// self-reaction), at a rail only inward current moves it, and the new
// voltage is held to the rails.
func (s *Solver) runBRIM(st *engine.SolveState, pl *engine.Ladder) {
	sc := st.Scratch.(*solverScratch)
	x := st.X
	for i := range x {
		if st.RNG.Float64() < 0.5 {
			x[i] = -0.1
		} else {
			x[i] = 0.1
		}
	}
	bestE := math.Inf(1)
	t := 0.0
	for e, temp := range pl.Temps {
		for k := 0; k < brimSubsteps; k++ {
			cur := s.m.W.MulVec(x, sc.deriv)
			for i, xi := range x {
				d := cur[i] + s.m.H[i]
				if xi >= brimRail && d > 0 {
					d = 0
				} else if xi <= -brimRail && d < 0 {
					d = 0
				}
				xi += brimDt * d
				if xi < -brimRail {
					xi = -brimRail
				} else if xi > brimRail {
					xi = brimRail
				}
				x[i] = xi
			}
			t += brimDt
		}
		QuantizeInto(st.Spins, x)
		if en := s.m.Energy(st.Spins); en < bestE {
			bestE = en
			copy(st.Res.Spins, st.Spins)
			st.Res.BestStep = e
		}
		observe(st, e, t)
		if e < len(pl.Temps)-1 {
			frac := brimFlipFrac * temp / pl.Sched.T0
			for i := range x {
				if st.RNG.Float64() < frac {
					x[i] = -x[i]
				}
			}
		}
	}
}

// runOIM: blocks of Euler integration of the oscillator phase flow with the
// SHIL strength ramped from 0 (full heat) toward oimShilK as the ladder
// cools, a phase-quantized checkpoint after each block.
func (s *Solver) runOIM(st *engine.SolveState, pl *engine.Ladder) {
	sc := st.Scratch.(*solverScratch)
	phi := st.X
	for i := range phi {
		phi[i] = st.RNG.Uniform(0, 2*math.Pi)
	}
	bestE := math.Inf(1)
	t := 0.0
	for e, temp := range pl.Temps {
		sc.ps.shilK = oimShilK * (1 - temp/pl.Sched.T0)
		for k := 0; k < oimSubsteps; k++ {
			sc.ps.Derivative(phi, sc.deriv)
			for i := range phi {
				phi[i] += oimDt * sc.deriv[i]
			}
			t += oimDt
		}
		PhaseQuantizeInto(st.Spins, phi)
		if en := s.m.Energy(st.Spins); en < bestE {
			bestE = en
			copy(st.Res.Spins, st.Spins)
			st.Res.BestStep = e
		}
		observe(st, e, t)
	}
}

// rebuildLocal recomputes the local-field cache local[i] = Σ_j W_ij σ_j
// from scratch in O(nnz).
func rebuildLocal(m *Model, s []int8, local []float64) {
	for i := 0; i < m.N; i++ {
		var sum float64
		for p := m.W.RowPtr[i]; p < m.W.RowPtr[i+1]; p++ {
			sum += m.W.Val[p] * float64(s[m.W.ColIdx[p]])
		}
		local[i] = sum
	}
}

// applyFlip flips spin i and incrementally updates the local fields of its
// neighbours in O(degree), using W's symmetry (W_ji = W_ij).
func applyFlip(m *Model, s []int8, i int, local []float64) {
	s[i] = -s[i]
	delta := 2 * float64(s[i])
	for p := m.W.RowPtr[i]; p < m.W.RowPtr[i+1]; p++ {
		local[m.W.ColIdx[p]] += m.W.Val[p] * delta
	}
}
