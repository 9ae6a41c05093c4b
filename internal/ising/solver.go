package ising

import (
	"fmt"
	"math"
	"math/bits"

	"dsgl/internal/circuit"
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
	oimDt        = 0.02 // ns per Euler step
	oimSubsteps  = 25   // Euler steps per schedule step
	oimShilK     = 1.0  // SHIL strength at the cold end of the ladder
)

// acceptGridCap bounds K, the largest row sum of |W| and |h| in grid steps,
// up to which a Metropolis solver keeps an acceptance table: K+1 entries of
// 16 bytes per SolveState, 64 KiB at the cap.
const acceptGridCap = 1 << 12

// Solver adapts an Ising model to the engine.OptBackend contract: one
// instance, one selected dynamics, annealed under engine-compiled schedule
// plans with the engine's seeded multi-restart fan-out. The solver and its
// coupling network are immutable after construction; all mutable state
// lives in the per-worker SolveState, which is what makes parallel restarts
// race-free and bit-identical to a sequential loop.
type Solver struct {
	m    *Model
	dyn  Dynamics
	seed uint64
	// net is the BRIM coupling circuit, built once; nil for the other
	// dynamics.
	net *circuit.Network
	// acceptInv is 1/(2q) and acceptK the table's largest index when the
	// Metropolis model sits on a power-of-two grid q (see acceptGrid);
	// acceptInv is 0 otherwise, and for the other dynamics.
	acceptInv float64
	acceptK   int
}

// NewSolver builds an OptBackend for model m under the chosen dynamics.
func NewSolver(m *Model, dyn Dynamics, seed uint64) (*Solver, error) {
	s := &Solver{m: m, dyn: dyn, seed: seed}
	switch dyn {
	case BRIMDynamics:
		net, err := circuit.NewNetworkCSR(m.W, m.H, circuit.Config{Self: circuit.Linear})
		if err != nil {
			return nil, err
		}
		s.net = net
	case MetropolisDynamics:
		s.acceptInv, s.acceptK = acceptGrid(m)
	case OIMDynamics:
	default:
		return nil, fmt.Errorf("ising: unknown dynamics %q (want %s|%s|%s)",
			dyn, BRIMDynamics, MetropolisDynamics, OIMDynamics)
	}
	return s, nil
}

// Model returns the Ising model this solver anneals.
func (s *Solver) Model() *Model { return s.m }

// Dynamics returns the selected dynamics.
func (s *Solver) Dynamics() Dynamics { return s.dyn }

// Name implements engine.OptBackend.
func (s *Solver) Name() string { return "ising-" + string(s.dyn) }

// Dim implements engine.OptBackend.
func (s *Solver) Dim() int { return s.m.N }

// BaseSeed implements engine.OptBackend.
func (s *Solver) BaseSeed() uint64 { return s.seed }

// EnergyOf implements engine.OptBackend: the Ising Hamiltonian at s.
func (s *Solver) EnergyOf(spins []int8) float64 { return s.m.Energy(spins) }

// solvePlan is a compiled schedule: the control ladder evaluated once per
// step, shared read-only by every restart that anneals under it.
type solvePlan struct {
	sched engine.Schedule
	temps []float64
}

// CompileSolvePlan implements engine.OptBackend.
func (s *Solver) CompileSolvePlan(sched engine.Schedule) any {
	temps := make([]float64, sched.Steps)
	for k := range temps {
		temps[k] = sched.At(k)
	}
	return &solvePlan{sched: sched, temps: temps}
}

// solverScratch is the per-state arena: derivative and coupling buffers for
// the continuous dynamics, local fields and the acceptance table for
// Metropolis, and the all-free clamp mask the BRIM derivative wants.
type solverScratch struct {
	deriv []float64
	buf   []float64
	mask  []bool
	local []float64
	ps    phaseSystem
	// accept caches math.Exp(-dE/T) at index dE/(2q) for on-grid
	// Metropolis models, nil otherwise. An entry holds for the sweep whose
	// stamp it carries; sweep advances before every sweep and is never
	// reset, so no stamp from an earlier sweep or restart matches.
	accept []acceptEntry
	sweep  uint64
}

// acceptEntry is one acceptance-table slot.
type acceptEntry struct {
	sweep uint64
	p     float64
}

// AttachSolveState implements engine.OptBackend.
func (s *Solver) AttachSolveState(st *engine.SolveState) {
	n := s.m.N
	st.Scratch = &solverScratch{
		deriv: make([]float64, n),
		buf:   make([]float64, n),
		mask:  make([]bool, n),
		local: make([]float64, n),
		ps:    phaseSystem{w: s.m.W},
	}
	if s.acceptInv != 0 {
		st.Scratch.(*solverScratch).accept = make([]acceptEntry, s.acceptK+1)
	}
}

// RunSolve implements engine.OptBackend: one restart of the selected
// dynamics under a compiled schedule plan. The best state seen at any
// checkpoint is kept, and its energy is recomputed from the spins at
// readout, so Res.Energy == EnergyOf(Res.Spins) holds bit-exactly — the
// identity the opt-best-energy-monotone invariant leans on.
func (s *Solver) RunSolve(st *engine.SolveState, plan any) (*engine.OptResult, error) {
	pl, ok := plan.(*solvePlan)
	if !ok {
		return nil, fmt.Errorf("%s: foreign plan type %T", s.Name(), plan)
	}
	switch s.dyn {
	case MetropolisDynamics:
		s.runMetropolis(st, pl)
	case BRIMDynamics:
		s.runBRIM(st, pl)
	case OIMDynamics:
		s.runOIM(st, pl)
	default:
		return nil, fmt.Errorf("ising: unknown dynamics %q", s.dyn)
	}
	st.Res.Energy = s.m.Energy(st.Res.Spins)
	st.Res.Steps = pl.sched.Steps
	return &st.Res, nil
}

// observe dispatches the per-checkpoint observer with the lazy energy
// closure; cheap no-op when no observer is installed.
func observe(st *engine.SolveState, step int, t float64) {
	if st.Observer != nil {
		st.Observer(engine.StepInfo{Step: step, TimeNs: t, EnergyFn: st.EnergyFn, X: st.X})
	}
}

// runMetropolis: one sweep per schedule step at ladder temperature T(k).
func (s *Solver) runMetropolis(st *engine.SolveState, pl *solvePlan) {
	n := s.m.N
	sc := st.Scratch.(*solverScratch)
	for i := range st.Spins {
		if st.RNG.Float64() < 0.5 {
			st.Spins[i] = -1
		} else {
			st.Spins[i] = 1
		}
	}
	rebuildLocal(s.m, st.Spins, sc.local)
	curE := s.m.Energy(st.Spins)
	bestE := curE
	copy(st.Res.Spins, st.Spins)
	st.Res.BestStep = 0
	for sweep, temp := range pl.temps {
		sc.sweep++
		for k := 0; k < n; k++ {
			i := st.RNG.Intn(n)
			dE := 2 * float64(st.Spins[i]) * (sc.local[i] + s.m.H[i])
			if !(dE <= 0) {
				// Accept the uphill step with probability exp(-dE/T); a NaN
				// dE from an overflowed field also draws u and is rejected.
				// With a table, each distinct dE is computed once per sweep:
				// on the grid dE is exact, so the cached value has the bits
				// the direct call would return.
				u := st.RNG.Float64()
				var p float64
				if sc.accept == nil {
					p = math.Exp(-dE / temp)
				} else if e := &sc.accept[int(dE*s.acceptInv)]; e.sweep == sc.sweep {
					p = e.p
				} else {
					p = math.Exp(-dE / temp)
					e.sweep, e.p = sc.sweep, p
				}
				if !(u < p) {
					continue
				}
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

// acceptGrid decides whether m's Metropolis energy steps fit an acceptance
// table. It finds the largest power of two q that divides every W and h
// entry, and K = maxᵢ(Σⱼ|Wᵢⱼ| + |hᵢ|)/q. Local fields are then sums of
// multiples of q no larger than Kq, so every proposal's dE = 2σᵢ(localᵢ+hᵢ)
// is computed exactly, and dE/(2q) is an integer in [-K, K]. It returns
// 1/(2q) and K, or 0, 0 when m is off the grid: no non-zero entry, K above
// acceptGridCap (a non-finite entry makes K NaN or +Inf), or a 1/(2q) or
// 2Kq that overflows.
func acceptGrid(m *Model) (inv float64, k int) {
	var maxRow float64
	for i := 0; i < m.N; i++ {
		row := math.Abs(m.H[i])
		for p := m.W.RowPtr[i]; p < m.W.RowPtr[i+1]; p++ {
			row += math.Abs(m.W.Val[p])
		}
		maxRow = math.Max(maxRow, row)
	}
	// q = 2^qExp. K is compared as a float against the cap whenever q
	// shrinks, before it becomes an integer, so continuous weights stop
	// the scan at their first entry and huge values cannot wrap.
	qExp := math.MaxInt
	for _, vals := range [][]float64{m.W.Val, m.H} {
		for _, v := range vals {
			if v == 0 {
				continue
			}
			if e := lowBitExp(v); e < qExp {
				qExp = e
				if !(math.Ldexp(maxRow, -qExp) <= acceptGridCap) {
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

// runBRIM: blocks of Euler integration on the coupling circuit, a quantized
// checkpoint after each block, then a random-flip escape whose fraction is
// the ladder value scaled to brimFlipFrac at full heat.
func (s *Solver) runBRIM(st *engine.SolveState, pl *solvePlan) {
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
	for e, temp := range pl.temps {
		for k := 0; k < brimSubsteps; k++ {
			s.net.DerivativeMasked(t, x, sc.deriv, sc.mask, sc.buf)
			for i := range x {
				x[i] += brimDt * sc.deriv[i]
			}
			s.net.ClampRails(x)
			t += brimDt
		}
		QuantizeInto(st.Spins, x)
		if en := s.m.Energy(st.Spins); en < bestE {
			bestE = en
			copy(st.Res.Spins, st.Spins)
			st.Res.BestStep = e
		}
		observe(st, e, t)
		if e < len(pl.temps)-1 {
			frac := brimFlipFrac * temp / pl.sched.T0
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
func (s *Solver) runOIM(st *engine.SolveState, pl *solvePlan) {
	sc := st.Scratch.(*solverScratch)
	phi := st.X
	for i := range phi {
		phi[i] = st.RNG.Uniform(0, 2*math.Pi)
	}
	bestE := math.Inf(1)
	t := 0.0
	for e, temp := range pl.temps {
		sc.ps.shilK = oimShilK * (1 - temp/pl.sched.T0)
		for k := 0; k < oimSubsteps; k++ {
			sc.ps.Derivative(t, phi, sc.deriv)
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
