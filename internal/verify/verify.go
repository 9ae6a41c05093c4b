// Package verify is the invariant-verification layer of the DS-GL
// reproduction: small, composable checkers for the ten contracts the
// system claims (paper Sec. III, Eqs. 6-8), plus the structured report
// they feed.
//
// The ten invariants, as checked by dsgl.(*Model).Verify, the `dsgl verify`
// CLI subcommand and `make verify` — this list is their one statement:
//
//  1. energy-descent      — the Lyapunov-designed dynamics anneal with
//     monotone (ripple-bounded) energy descent;
//  2. settle-residual     — whenever an inference reports Settled, the true
//     equilibrium residual max |dσ/dt| is below the machine's settle bound
//     (the fixed point σ_i = -Σ J_ij σ_j / h_i holds);
//  3. snapshot-round-trip — a model survives Save/Load bit-identically:
//     same compilation stats, same effective coupling matrix, same
//     inference results on a probe window;
//  4. seq-par-identity    — Evaluate and EvaluateParallel (and a parallel
//     RunBatch vs sequential runs) are bit-identical for any worker count;
//  5. lossless-compile    — when no coupling is dropped, the compiled
//     machine realizes exactly the tuned J (EffectiveJ == Tuned.J);
//  6. plan-naive-identity — the clamp-plan compiled inference path (constant
//     clamp currents folded, free-row kernels) returns Results bit-identical
//     to the naive re-evaluate-everything reference loop;
//  7. sharded-fixed-point — the community-sharded parallel anneal (stale
//     cross-shard couplings refreshed every sync interval) settles to the
//     same equilibrium as the exact sequential anneal, node-wise within the
//     tolerance the settle-residual bound implies. Unlike 4 and 6 this is a
//     tolerance contract, not bit-identity: the sharded kernel sums each
//     row's couplings in a different grouping, so IEEE-754 non-associativity
//     already perturbs the trajectory at the first step;
//  8. warm-start-fixed-point — a warm-started streaming tick (free nodes
//     initialized from the previous tick's equilibrium instead of a fresh
//     random draw; see engine.Stream) settles to the same fixed point as a
//     cold inference of the same window. Like 7 this is a tolerance
//     contract: the clamped dynamics have a unique attracting equilibrium,
//     so the init only moves where the trajectory starts, never where it
//     ends — but the two trajectories differ, so the settled states agree
//     only within the settle-residual bracket, not bit-for-bit;
//  9. opt-best-energy-monotone — a multi-restart combinatorial solve
//     (engine.OptEngine over an ising.Solver) reports an internally
//     consistent run: the best-energy-so-far trace is the exact running
//     minimum of the per-restart energies (hence non-increasing), the
//     reported best matches both the trace floor and its restart's energy,
//     and recomputing the Hamiltonian at the reported best spins
//     reproduces the reported energy bit-for-bit. Checked at two worker
//     counts, whose runs must also be bit-identical (the optimization
//     face of invariant 4's determinism contract);
//  10. decomposed-k1-identity — heterogeneous decomposition with a single
//     interaction class (Options.Decompose, Classes=1) reproduces the
//     monolithic fit bit-for-bit: same tuned J and h, and bit-identical
//     probe inference. The block-structured solves collapse to the full
//     Gram at K=1 (train.BlockRidge vs RidgeInit), the class-refined
//     partition is the Louvain partition label-for-label, and everything
//     downstream is deterministic — so any divergence is a real defect in
//     the decomposition plumbing, never numerical slack.
//
// The package deliberately contains no pipeline logic and imports no
// backend: it consumes results, matrices and energy traces produced by the
// caller, so the same checkers serve the public API, the CLI, and the unit
// tests of the subsystems they guard. Invariants 7 and 8 share one
// tolerance checker, FixedPoint.
package verify

import (
	"fmt"
	"math"

	"dsgl/internal/engine"
	"dsgl/internal/mat"
)

// Invariant identifiers, stable across report formats.
const (
	InvEnergyDescent       = "energy-descent"
	InvSettleResidual      = "settle-residual"
	InvSnapshotRoundTrip   = "snapshot-round-trip"
	InvSeqParIdentity      = "seq-par-identity"
	InvLosslessCompile     = "lossless-compile"
	InvPlanNaiveIdentity   = "plan-naive-identity"
	InvShardedFixedPoint   = "sharded-fixed-point"
	InvWarmStartFixedPoint = "warm-start-fixed-point"

	InvOptBestEnergyMonotone = "opt-best-energy-monotone"

	InvDecomposedK1Identity = "decomposed-k1-identity"
)

// maxViolationsPerCheck caps the per-check violation list; overflow is
// summarized in one trailing violation so a badly broken run stays
// readable.
const maxViolationsPerCheck = 8

// DescentTol bounds the energy increases MonotoneDescent tolerates.
type DescentTol struct {
	// Abs is an absolute per-step increase allowance (floating-point and
	// forward-Euler discretization slack).
	Abs float64
	// Rel scales with the trace's dynamic range: a step may rise by at most
	// Abs + Rel*(max-min). Temporal+spatial co-annealing carries
	// sample-and-hold ripple, so multiplexed machines verify with a nonzero
	// Rel while single-slice machines use a strict one.
	Rel float64
	// NetRel bounds the full-trace drift: the final energy must not exceed
	// the initial one by more than Abs + NetRel*(max-min). Zero means the
	// final energy must be <= the initial one (plus Abs).
	NetRel float64
}

// MonotoneDescent checks that an energy trace descends monotonically up to
// the given ripple tolerance, and that the trace ends no higher than it
// began. The trace is whatever the caller sampled — per integration step
// via a StepObserver, or downsampled to one point per slice cycle.
func MonotoneDescent(energies []float64, tol DescentTol) []Violation {
	if len(energies) < 2 {
		return nil
	}
	lo, hi := energies[0], energies[0]
	for _, e := range energies[1:] {
		if e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	span := hi - lo
	allow := tol.Abs + tol.Rel*span
	var v []Violation
	overflow := 0
	for k := 1; k < len(energies); k++ {
		rise := energies[k] - energies[k-1]
		if rise <= allow {
			continue
		}
		if len(v) < maxViolationsPerCheck {
			v = append(v, Violation{
				Invariant: InvEnergyDescent,
				Detail: fmt.Sprintf("energy rose %.3g (allowed %.3g) at trace point %d: %.6g -> %.6g",
					rise, allow, k, energies[k-1], energies[k]),
			})
		} else {
			overflow++
		}
	}
	if overflow > 0 {
		v = append(v, Violation{
			Invariant: InvEnergyDescent,
			Detail:    fmt.Sprintf("... and %d more ripple violations", overflow),
		})
	}
	if net := energies[len(energies)-1] - energies[0]; net > tol.Abs+tol.NetRel*span {
		v = append(v, Violation{
			Invariant: InvEnergyDescent,
			Detail: fmt.Sprintf("net energy ascent over the anneal: %.6g -> %.6g (drift %.3g, allowed %.3g)",
				energies[0], energies[len(energies)-1], net, tol.Abs+tol.NetRel*span),
		})
	}
	return v
}

// ResidualChecker is the backend surface the settle-residual check needs:
// the true equilibrium residual at a state and the bound a Settled result
// guarantees. Both *scalable.Machine and *dspu.DSPU implement it.
type ResidualChecker interface {
	ResidualAt(x []float64, clamped []bool) (float64, error)
	SettleResidualTol() float64
}

// SettledResidual checks invariant 2 on one inference outcome: a Settled
// result must sit within the backend's full-residual settle bound. A
// non-settled result makes no equilibrium claim and passes vacuously.
func SettledResidual(m ResidualChecker, res *engine.Result, clamped []bool) []Violation {
	if !res.Settled {
		return nil
	}
	r, err := m.ResidualAt(res.Voltage, clamped)
	if err != nil {
		return []Violation{{Invariant: InvSettleResidual, Detail: err.Error()}}
	}
	if tol := m.SettleResidualTol(); r >= tol {
		return []Violation{{
			Invariant: InvSettleResidual,
			Detail:    fmt.Sprintf("Settled reported but equilibrium residual %.3g >= bound %.3g", r, tol),
		}}
	}
	return nil
}

// DenseEqual checks two dense matrices for bit-identity.
func DenseEqual(invariant, what string, a, b *mat.Dense) []Violation {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return []Violation{{
			Invariant: invariant,
			Detail:    fmt.Sprintf("%s shape diverges: %dx%d vs %dx%d", what, a.Rows, a.Cols, b.Rows, b.Cols),
		}}
	}
	var v []Violation
	overflow := 0
	for i := range a.Data {
		if a.Data[i] == b.Data[i] || (math.IsNaN(a.Data[i]) && math.IsNaN(b.Data[i])) {
			continue
		}
		if len(v) < maxViolationsPerCheck {
			v = append(v, Violation{
				Invariant: invariant,
				Detail: fmt.Sprintf("%s[%d,%d] diverges: %v vs %v",
					what, i/a.Cols, i%a.Cols, a.Data[i], b.Data[i]),
			})
		} else {
			overflow++
		}
	}
	if overflow > 0 {
		v = append(v, Violation{
			Invariant: invariant,
			Detail:    fmt.Sprintf("... and %d more %s divergences", overflow, what),
		})
	}
	return v
}

// VectorsEqual checks two float vectors for bit-identity (NaN equals NaN,
// matching DenseEqual's convention). what names the vector in violation
// details (e.g. "Tuned.H").
func VectorsEqual(invariant, what string, a, b []float64) []Violation {
	if len(a) != len(b) {
		return []Violation{{
			Invariant: invariant,
			Detail:    fmt.Sprintf("%s length diverges: %d vs %d", what, len(a), len(b)),
		}}
	}
	var v []Violation
	overflow := 0
	for i := range a {
		if a[i] == b[i] || (math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			continue
		}
		if len(v) < maxViolationsPerCheck {
			v = append(v, Violation{
				Invariant: invariant,
				Detail:    fmt.Sprintf("%s[%d] diverges: %v vs %v", what, i, a[i], b[i]),
			})
		} else {
			overflow++
		}
	}
	if overflow > 0 {
		v = append(v, Violation{
			Invariant: invariant,
			Detail:    fmt.Sprintf("... and %d more %s divergences", overflow, what),
		})
	}
	return v
}

// ResultsEqual checks two inference results for bit-identity: voltages,
// latency accounting, settle flag, switch and step counts, final energy,
// and settle residual. label names the pair in violation details (e.g.
// "window 3").
// Results come from any engine backend (scalable or dense).
func ResultsEqual(invariant, label string, a, b *engine.Result) []Violation {
	var v []Violation
	add := func(format string, args ...any) {
		v = append(v, Violation{Invariant: invariant, Detail: label + ": " + fmt.Sprintf(format, args...)})
	}
	if len(a.Voltage) != len(b.Voltage) {
		add("voltage length diverges: %d vs %d", len(a.Voltage), len(b.Voltage))
		return v
	}
	diverged := 0
	first := -1
	for i := range a.Voltage {
		if a.Voltage[i] != b.Voltage[i] {
			if first < 0 {
				first = i
			}
			diverged++
		}
	}
	if diverged > 0 {
		add("%d voltages diverge (first at node %d: %v vs %v)",
			diverged, first, a.Voltage[first], b.Voltage[first])
	}
	if a.LatencyNs != b.LatencyNs {
		add("latency diverges: %v vs %v ns", a.LatencyNs, b.LatencyNs)
	}
	if a.AnnealNs != b.AnnealNs {
		add("anneal time diverges: %v vs %v ns", a.AnnealNs, b.AnnealNs)
	}
	if a.Settled != b.Settled {
		add("settle flag diverges: %v vs %v", a.Settled, b.Settled)
	}
	if a.Switches != b.Switches {
		add("switch count diverges: %d vs %d", a.Switches, b.Switches)
	}
	if a.Steps != b.Steps {
		add("step count diverges: %d vs %d", a.Steps, b.Steps)
	}
	if a.Energy != b.Energy && !(math.IsNaN(a.Energy) && math.IsNaN(b.Energy)) {
		add("final energy diverges: %v vs %v", a.Energy, b.Energy)
	}
	if a.Residual != b.Residual && !(math.IsNaN(a.Residual) && math.IsNaN(b.Residual)) {
		add("settle residual diverges: %v vs %v", a.Residual, b.Residual)
	}
	return v
}

// FixedPoint checks the tolerance invariants 7 and 8 on one probe: a
// settled reference anneal and the anneal compared with it (sharded, or
// warm-started) must reach the same fixed point, node-wise within tol. The
// caller derives tol from the settle-residual bound and the field
// strengths: both states carry residual < bound, so they bracket the
// unique clamped equilibrium. A reference that did not settle makes no
// fixed-point claim and passes vacuously; a settle the compared anneal
// fails to reproduce is itself a violation — stale cross-shard couplings
// or a nearer start may change the path, never prevent convergence within
// the same time budget.
func FixedPoint(invariant, label string, ref, got *engine.Result, tol float64) []Violation {
	add := func(format string, args ...any) Violation {
		return Violation{Invariant: invariant, Detail: label + ": " + fmt.Sprintf(format, args...)}
	}
	if !ref.Settled {
		return nil
	}
	if !got.Settled {
		return []Violation{add("reference anneal settled but the compared anneal did not (residual %.3g after %d steps)",
			got.Residual, got.Steps)}
	}
	if len(ref.Voltage) != len(got.Voltage) {
		return []Violation{add("voltage length diverges: %d vs %d", len(ref.Voltage), len(got.Voltage))}
	}
	var v []Violation
	overflow := 0
	for i := range ref.Voltage {
		d := math.Abs(ref.Voltage[i] - got.Voltage[i])
		if d <= tol || (math.IsNaN(ref.Voltage[i]) && math.IsNaN(got.Voltage[i])) {
			continue
		}
		if len(v) < maxViolationsPerCheck {
			v = append(v, add("node %d: reference %v vs compared %v (|Δ|=%.3g > tol %.3g)",
				i, ref.Voltage[i], got.Voltage[i], d, tol))
		} else {
			overflow++
		}
	}
	if overflow > 0 {
		v = append(v, add("... and %d more node divergences", overflow))
	}
	return v
}

// OptBestEnergyMonotone checks invariant 9 on one multi-restart solve:
// BestTrace must be the exact running minimum of Energies (non-increasing
// by construction), the reported Best must agree with both the trace floor
// and its restart's recorded energy, and energyOf — the backend's
// Hamiltonian — must reproduce Best.Energy from Best.Spins bit-for-bit.
// label names the run in violation details (e.g. "workers=4").
func OptBestEnergyMonotone(label string, run *engine.OptRun, energyOf func([]int8) float64) []Violation {
	add := func(format string, args ...any) Violation {
		return Violation{Invariant: InvOptBestEnergyMonotone, Detail: label + ": " + fmt.Sprintf(format, args...)}
	}
	if run == nil || run.Best == nil {
		return []Violation{add("run has no best result")}
	}
	if len(run.Energies) != run.Restarts || len(run.BestTrace) != run.Restarts {
		return []Violation{add("trace lengths %d/%d do not match %d restarts",
			len(run.Energies), len(run.BestTrace), run.Restarts)}
	}
	var v []Violation
	overflow := 0
	best := math.Inf(1)
	bestIdx := -1
	for i, e := range run.Energies {
		if e < best {
			best = e
			bestIdx = i
		}
		ok := run.BestTrace[i] == best
		if i > 0 && run.BestTrace[i] > run.BestTrace[i-1] {
			ok = false
		}
		if ok {
			continue
		}
		if len(v) < maxViolationsPerCheck {
			v = append(v, add("BestTrace[%d] = %.17g, want running min %.17g", i, run.BestTrace[i], best))
		} else {
			overflow++
		}
	}
	if overflow > 0 {
		v = append(v, add("... and %d more trace divergences", overflow))
	}
	if bestIdx >= 0 && run.BestRestart != bestIdx {
		v = append(v, add("BestRestart = %d, want earliest minimum %d", run.BestRestart, bestIdx))
	}
	if run.Best.Energy != best {
		v = append(v, add("Best.Energy = %.17g, want trace floor %.17g", run.Best.Energy, best))
	}
	if run.BestRestart >= 0 && run.BestRestart < len(run.Energies) &&
		run.Energies[run.BestRestart] != run.Best.Energy {
		v = append(v, add("Energies[%d] = %.17g != Best.Energy %.17g",
			run.BestRestart, run.Energies[run.BestRestart], run.Best.Energy))
	}
	if got := energyOf(run.Best.Spins); got != run.Best.Energy {
		v = append(v, add("recomputed Hamiltonian %.17g != reported Best.Energy %.17g", got, run.Best.Energy))
	}
	return v
}

// OptRunsIdentical checks that two multi-restart solves of the same
// problem — typically at different worker counts — are bit-identical:
// same per-restart energies, same best restart, same best spins.
func OptRunsIdentical(label string, a, b *engine.OptRun) []Violation {
	add := func(format string, args ...any) Violation {
		return Violation{Invariant: InvOptBestEnergyMonotone, Detail: label + ": " + fmt.Sprintf(format, args...)}
	}
	if a == nil || b == nil || a.Best == nil || b.Best == nil {
		return []Violation{add("run missing a best result")}
	}
	var v []Violation
	if a.Restarts != b.Restarts {
		return append(v, add("restart counts differ: %d vs %d", a.Restarts, b.Restarts))
	}
	for i := range a.Energies {
		if a.Energies[i] != b.Energies[i] {
			v = append(v, add("Energies[%d] differ: %.17g vs %.17g", i, a.Energies[i], b.Energies[i]))
			if len(v) >= maxViolationsPerCheck {
				break
			}
		}
	}
	if a.BestRestart != b.BestRestart {
		v = append(v, add("BestRestart differs: %d vs %d", a.BestRestart, b.BestRestart))
	}
	for i := range a.Best.Spins {
		if i < len(b.Best.Spins) && a.Best.Spins[i] != b.Best.Spins[i] {
			v = append(v, add("Best.Spins[%d] differ: %d vs %d", i, a.Best.Spins[i], b.Best.Spins[i]))
			break
		}
	}
	return v
}
