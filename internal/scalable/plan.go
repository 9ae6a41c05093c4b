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
// bounded LRU; internal/mat does the splitting and this file supplies the
// one anneal loop, Anneal, that both engine paths run. The Naive path runs
// it under the unfolded plan (mat.Couplings.Unfold): no static rows, every
// coupling matrix whole in Dyn, so every row is re-accumulated from zero,
// in stored order, every step.
//
// Bit-exactness is the design constraint, not an accident. The plan path
// must return Results bit-identical to the unfolded one (the sixth
// verification invariant), and since both run this loop, the one step
// that invariant isolates is the fold itself, which IEEE-754
// non-associativity makes a strict discipline:
//
//   - a "dyn" row keeps the FULL original row — including its clamped
//     columns — so its per-step accumulation order is exactly the unfolded
//     order. Partial folding of a mixed row would reassociate the sum.
//   - a "static" row's folded bias is computed by the same
//     start-at-zero, in-row-order accumulation the unfolded plan runs each
//     step, so the hoisted value is the bit pattern it recomputes.
//   - mat.CSR.MulVecAdd starts each row's accumulation literally at the
//     bias (no spurious +0 terms), and the bias is exactly +0 for dyn rows
//     (and for every row of the unfolded plan, whose static matrices are
//     empty), so the fused kernel reproduces both row classes' bit
//     patterns.
//   - the sample-and-hold interSum update keeps the two-op
//     subtract-then-add sequence per refresh: skipping a "constant"
//     refresh would be observable, since a-c+c need not round-trip to a.
package scalable

import (
	"math"

	"dsgl/internal/engine"
	"dsgl/internal/mat"
)

// refreshPhase re-evaluates slice k's held contribution from the fresh
// state: subtract the stale current, recompute, add the fresh one. Only the
// dyn rows are re-accumulated — static rows re-emit their folded bias,
// which is the bit pattern a full recompute would produce. The
// subtract/recompute/add sequence on interSum is kept per free node because
// a-c+c need not round-trip even when c is unchanged.
func refreshPhase(st *engine.InferState, sc *scratch, pl *mat.ClampSplit, k int) {
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

// Anneal is the co-annealing loop, under a clamp plan: the constant clamp
// currents of the plan's static rows folded out once, the dyn rows
// re-accumulated each step, and every per-node loop walking the free index
// list. Under a Split plan and under the unfolded plan of the same mask it
// performs the same floating-point operations on every free node, in the
// same order — see the package comment for the discipline — so the two
// Results are bit-identical. Clamped nodes are never written.
func (m *Machine) Anneal(st *engine.InferState, pl *mat.ClampSplit) (*engine.Result, error) {
	sc := st.Scratch.(*scratch)
	x := st.X
	steps := int(m.cfg.MaxTimeNs / Dt)
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
	// contrib[k] is the coupling current of slice k ("mapping" k). The
	// live mapping is a real analog connection and refreshes from the
	// fresh state every step; an inactive mapping's CU sample-and-hold
	// keeps the current it carried when last live. Mappings that have
	// never been live contribute nothing yet — cross-mapping information
	// only propagates as the Switch Controller rotates through them, one
	// synchronization interval at a time.
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
		// Streaming warm tick: x is the previous tick's equilibrium, so
		// every held slice is seeded from it up front — exactly the
		// sample-and-hold current a settled past state would be carrying —
		// instead of contributing nothing until the rotation first reaches
		// it. Without this a warm tick pays a full slice cycle before the
		// dynamics even see all couplings, no matter how close its init is.
		for k := 1; k < len(m.phases); k++ {
			refreshPhase(st, sc, pl, k)
		}
	}

	noisy := m.cfg.NodeNoise > 0 || m.cfg.CouplerNoise > 0
	var couplerScale float64
	if noisy {
		couplerScale = m.typicalCoupling()
	}
	r := &st.RNG

	phase := 0
	nextSwitch := m.cfg.SyncIntervalNs
	annealT := 0.0
	switches := 0
	settled := false
	lastResidual := math.NaN()
	taken := 0
	checkEvery := int(m.cfg.SyncIntervalNs*float64(len(m.phases))/Dt) + 1
	if checkEvery < 32 {
		checkEvery = 32
	}
	nextFine := 0 // earliest step for the next warm fine-grained check

	for s := 0; s < steps; s++ {
		pl.Dyn[0].MulVecAdd(x, sc.bias[0], intraCur)
		refreshPhase(st, sc, pl, phase)
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
			if x[i] >= vRail && d > 0 {
				d = 0
			} else if x[i] <= -vRail && d < 0 {
				d = 0
			}
			deriv[i] = d
			if a := math.Abs(d); a > maxD {
				maxD = a
			}
		}
		// Fused update and rail clamp per free node. Clamped nodes never
		// move (their observation already respects the rail).
		for _, i := range free {
			xi := x[i] + Dt*deriv[i]
			if xi < -vRail {
				xi = -vRail
			} else if xi > vRail {
				xi = vRail
			}
			x[i] = xi
		}
		annealT += Dt
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

		// Convergence: a single-slice mapping settles when its own residual
		// vanishes; a multiplexed mapping carries switching ripple, so the
		// true (full-coupling) residual is checked once per slice cycle.
		// Each full-residual evaluation is captured as lastResidual so the
		// Result can report the equilibrium residual at convergence;
		// planResidual equals the engine's ResidualAt bit for bit.
		if len(m.phases) == 1 {
			if maxD < settleTol {
				lastResidual = m.planResidual(pl, sc, x, sc.resBuf)
				if lastResidual < settleTol*settleResidualFactor {
					settled = true
					break
				}
			}
		} else {
			// Warm ticks start near the fixed point, so they additionally
			// get the single-slice criterion: a vanished live-slice
			// derivative triggers a full-residual confirmation mid-cycle.
			// A failed confirmation (stale-held pseudo-equilibrium) backs
			// off warmFineBackoff steps so it cannot buy an O(nnz) residual
			// evaluation every step. Cold runs keep the once-per-cycle
			// check only.
			if st.WarmStart && s >= nextFine && maxD < settleTol {
				lastResidual = m.planResidual(pl, sc, x, sc.resBuf)
				if lastResidual < settleTol*settleResidualFactor {
					settled = true
					break
				}
				nextFine = s + warmFineBackoff
			}
			if s%checkEvery == checkEvery-1 {
				lastResidual = m.planResidual(pl, sc, x, sc.resBuf)
				if lastResidual < settleTol*settleResidualFactor {
					settled = true
					break
				}
			}
		}
		if len(m.phases) > 1 && annealT >= nextSwitch {
			phase = (phase + 1) % len(m.phases)
			switches++
			nextSwitch += m.cfg.SyncIntervalNs
		}
	}
	st.Res = engine.Result{
		Voltage:   x,
		AnnealNs:  annealT,
		LatencyNs: annealT + float64(switches)*switchOverheadNs,
		Settled:   settled,
		Switches:  switches,
		Steps:     taken,
		Residual:  lastResidual,
	}
	return &st.Res, nil
}

// planResidual is the engine's ResidualAt on the plan path: the true max
// |dσ/dt| with every coupling fresh, accumulated per free row with static
// rows re-emitted from their folded bias. Mirrors ResidualAt's order
// exactly — intra row first, then each slice's row sum added in slice
// order, each slice's contribution accumulated from zero (the bias for dyn
// rows) and added to the buffer in one operation (empty rows included:
// ResidualAt adds their zero sum too, which rounds -0 to +0).
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
		if x[i] >= vRail && d > 0 {
			d = 0
		} else if x[i] <= -vRail && d < 0 {
			d = 0
		}
		if a := math.Abs(d); a > maxD {
			maxD = a
		}
	}
	return maxD
}
