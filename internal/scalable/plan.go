// Clamp-aware compiled inference plans.
//
// During clamped inference the observed nodes' voltages never change, so
// every coupling-matrix row whose stored columns are all observed evaluates
// to the same number on every integration step. A clamp plan is the
// compilation of that observation — of the observation INDEX pattern, never
// the values — into a form the anneal hot loop can exploit. The machine's
// plan is the mat.ClampSplit of its coupling list [intra, slice 0, slice 1,
// ...], so Static[0]/Dyn[0] split the intra matrix and Static[1+k]/Dyn[1+k]
// split slice k:
//
//   - rows of each coupling matrix are classified once: a row whose columns
//     are all clamped becomes part of the "static" matrix and is folded into
//     a per-row constant bias computed once per inference; a row with at
//     least one free column stays in the "dyn" matrix and is re-evaluated
//     each step; a clamped row is dropped entirely (its output feeds a node
//     whose derivative is pinned to zero);
//   - the derivative, integration, and settle loops iterate a free-node
//     index list instead of scanning and skipping the clamp mask.
//
// Plans are compiled on demand by the shared inference engine
// (internal/engine), which caches them by packed clamp-mask key in a
// bounded LRU and patches them across small mask shifts for streams;
// internal/mat does the splitting and this file supplies the planned hot
// loop.
//
// Bit-exactness is the design constraint, not an accident. The plan path
// must return Results bit-identical to the naive loop (the sixth
// verification invariant), which IEEE-754 non-associativity makes a strict
// discipline:
//
//   - a "dyn" row keeps the FULL original row — including its clamped
//     columns — so its per-step accumulation order is exactly the naive
//     order. Partial folding of a mixed row would reassociate the sum.
//   - a "static" row's folded bias is computed by the same
//     start-at-zero, in-row-order accumulation the naive loop runs, so the
//     hoisted value is the bit pattern the naive loop recomputes each step.
//   - mat.CSR.MulVecAdd starts each row's accumulation literally at the
//     bias (no spurious +0 terms), and the bias is exactly +0 for dyn rows,
//     so the fused kernel reproduces both row classes' naive bit patterns.
//   - the sample-and-hold interSum update keeps the naive two-op
//     subtract-then-add sequence per refresh: skipping a "constant"
//     refresh would be observable, since a-c+c need not round-trip to a.
//   - noise draws happen per free node in ascending order in both paths,
//     so the RNG streams stay aligned.
package scalable

import (
	"math"

	"dsgl/internal/engine"
	"dsgl/internal/mat"
)

// CompilePlanDelta implements engine.DeltaBackend by patching the previous
// plan (mat.ClampSplit.Patch); nil declines and sends the engine to a full
// compile.
func (m *Machine) CompilePlanDelta(prev any, oldClamped, newClamped []bool) any {
	if pl, ok := prev.(*mat.ClampSplit); ok {
		if np := pl.Patch(m.cpl, oldClamped, newClamped); np != nil {
			return np
		}
	}
	return nil
}

// refreshPhasePlanned is refreshPhase on the plan path: slice k's held
// contribution is re-derived from the fresh state, but only the dyn rows are
// actually re-accumulated — static rows re-emit their folded bias, which is
// the bit pattern a full recompute would produce. The subtract/recompute/add
// sequence on interSum is kept per free node because a-c+c need not
// round-trip even when c is unchanged.
func refreshPhasePlanned(st *engine.InferState, sc *scratch, pl *mat.ClampSplit, k int) {
	contrib := sc.contrib[k]
	interSum := sc.interSum
	for _, i := range pl.Free {
		interSum[i] -= contrib[i]
	}
	pl.Dyn[1+k].MulVecAdd(st.X, sc.bias[1+k], contrib)
	for _, i := range pl.Free {
		interSum[i] += contrib[i]
	}
}

// inferPlanned is the clamp-plan hot loop: inferNaive with the constant
// clamp currents folded out and every per-node loop walking the free index
// list. Each floating-point operation it performs on a free node's state is
// the operation inferNaive performs, in the same order — see the package
// comment for the discipline — so the Result is bit-identical.
func (m *Machine) inferPlanned(st *engine.InferState, pl *mat.ClampSplit) (*engine.Result, error) {
	sc := st.Scratch.(*scratch)
	x := st.X
	steps := int(m.cfg.MaxTimeNs / m.cfg.Dt)
	if steps < 1 {
		return nil, errNoSteps
	}

	// Fold the constant clamp currents: one number per fully-clamped row,
	// computed here once instead of once per step. Free columns are never
	// read (static rows have none), so the uninitialized free voltages
	// cannot leak in.
	for k, static := range pl.Static {
		static.MulVec(x, sc.bias[k])
	}

	intraCur := sc.intraCur
	deriv := sc.deriv
	interSum := sc.interSum
	for i := range interSum {
		interSum[i] = 0
	}
	for k := range sc.contrib {
		c := sc.contrib[k]
		for i := range c {
			c[i] = 0
		}
	}
	free := pl.Free
	pl.Dyn[1].MulVecAdd(x, sc.bias[1], sc.contrib[0])
	for _, i := range free {
		interSum[i] += sc.contrib[0][i]
	}
	if st.WarmStart {
		// Streaming warm tick: seed every held slice from the warm-start
		// equilibrium up front instead of waiting for the rotation to
		// first reach it — mirrors inferNaive's warm init exactly.
		for k := 1; k < len(m.phases); k++ {
			refreshPhasePlanned(st, sc, pl, k)
		}
	}

	noisy := m.cfg.NodeNoise > 0 || m.cfg.CouplerNoise > 0
	var couplerScale float64
	if noisy {
		couplerScale = m.typicalCoupling()
	}
	r := &st.RNG

	phase := 0
	nextSwitch := m.cfg.SwitchIntervalNs
	annealT := 0.0
	switches := 0
	settled := false
	lastResidual := math.NaN()
	taken := 0
	checkEvery := int(m.cfg.SwitchIntervalNs*float64(len(m.phases))/m.cfg.Dt) + 1
	if checkEvery < 32 {
		checkEvery = 32
	}
	nextFine := 0 // earliest step for the next warm fine-grained check

	for s := 0; s < steps; s++ {
		pl.Dyn[0].MulVecAdd(x, sc.bias[0], intraCur)
		refreshPhasePlanned(st, sc, pl, phase)
		maxD := 0.0
		for _, i := range free {
			cur := intraCur[i] + interSum[i]
			if noisy && m.cfg.CouplerNoise > 0 {
				cur += r.NormScaled(0, m.cfg.CouplerNoise*couplerScale)
			}
			d := cur + m.params.H[i]*x[i]
			if noisy && m.cfg.NodeNoise > 0 {
				d += r.NormScaled(0, m.cfg.NodeNoise)
			}
			if x[i] >= m.cfg.VRail && d > 0 {
				d = 0
			} else if x[i] <= -m.cfg.VRail && d < 0 {
				d = 0
			}
			deriv[i] = d
			if a := math.Abs(d); a > maxD {
				maxD = a
			}
		}
		// Fused update+rail-clamp per free node; i-local, so identical to
		// the naive full-vector update followed by mat.Clamp. Clamped
		// nodes never move (their observation already respects the rail).
		for _, i := range free {
			xi := x[i] + m.cfg.Dt*deriv[i]
			if xi < -m.cfg.VRail {
				xi = -m.cfg.VRail
			} else if xi > m.cfg.VRail {
				xi = m.cfg.VRail
			}
			x[i] = xi
		}
		annealT += m.cfg.Dt
		taken = s + 1
		if st.Observer != nil {
			st.Observer(engine.StepInfo{
				Step:     s,
				TimeNs:   annealT,
				EnergyFn: st.EnergyFn,
				MaxDeriv: maxD,
				Phase:    phase,
				X:        x,
			})
		}

		// Mirrors inferNaive's convergence structure, lastResidual capture
		// included: planResidual equals fullResidual bit-for-bit, so the
		// reported Residual is bit-identical across the two paths.
		if len(m.phases) == 1 {
			if maxD < m.cfg.SettleTol {
				lastResidual = m.planResidual(pl, sc, x, sc.resBuf)
				if lastResidual < m.cfg.SettleTol*settleResidualFactor {
					settled = true
					break
				}
			}
		} else {
			// Warm-tick fine-grained settle check, mirroring inferNaive's
			// structure (and backoff) exactly; planResidual equals
			// fullResidual bit-for-bit, so warm naive and warm planned
			// runs settle on the same step with the same residual.
			if st.WarmStart && s >= nextFine && maxD < m.cfg.SettleTol {
				lastResidual = m.planResidual(pl, sc, x, sc.resBuf)
				if lastResidual < m.cfg.SettleTol*settleResidualFactor {
					settled = true
					break
				}
				nextFine = s + warmFineBackoff
			}
			if s%checkEvery == checkEvery-1 {
				lastResidual = m.planResidual(pl, sc, x, sc.resBuf)
				if lastResidual < m.cfg.SettleTol*settleResidualFactor {
					settled = true
					break
				}
			}
		}
		if len(m.phases) > 1 && annealT >= nextSwitch {
			phase = (phase + 1) % len(m.phases)
			switches++
			nextSwitch += m.cfg.SwitchIntervalNs
		}
	}
	st.Res = engine.Result{
		Voltage:   x,
		AnnealNs:  annealT,
		LatencyNs: annealT + float64(switches)*m.cfg.SwitchOverheadNs,
		Settled:   settled,
		Switches:  switches,
		Steps:     taken,
		Energy:    m.EnergyAt(x),
		Residual:  lastResidual,
	}
	return &st.Res, nil
}

// planResidual is fullResidual on the plan path: the true max |dσ/dt| with
// every coupling fresh, accumulated per free row with static rows re-emitted
// from their folded bias. Mirrors fullResidual's order exactly — intra row
// first, then each slice's row sum added in slice order, each slice's
// contribution accumulated from zero (the bias for dyn rows) and added to
// the buffer in one operation (empty rows included: naive adds their zero
// sum too, which rounds -0 to +0).
func (m *Machine) planResidual(pl *mat.ClampSplit, sc *scratch, x, buf []float64) float64 {
	pl.Dyn[0].MulVecAdd(x, sc.bias[0], buf)
	for k := 1; k < len(pl.Dyn); k++ {
		dyn := pl.Dyn[k]
		bias := sc.bias[k]
		for _, i := range pl.Free {
			sum := bias[i]
			for p := dyn.RowPtr[i]; p < dyn.RowPtr[i+1]; p++ {
				sum += dyn.Val[p] * x[dyn.ColIdx[p]]
			}
			buf[i] += sum
		}
	}
	maxD := 0.0
	for _, i := range pl.Free {
		d := buf[i] + m.params.H[i]*x[i]
		if x[i] >= m.cfg.VRail && d > 0 {
			d = 0
		} else if x[i] <= -m.cfg.VRail && d < 0 {
			d = 0
		}
		if a := math.Abs(d); a > maxD {
			maxD = a
		}
	}
	return maxD
}
