// Clamp-aware compiled inference plans for the dense-path DSPU. During
// clamped annealing the observed nodes never move, so every coupling row
// whose stored columns are all observed is one constant per inference. The
// plan is the mat.ClampSplit of the one-matrix coupling list [J]: it folds
// those rows into a bias computed once, keeps mixed rows whole (so per-step
// accumulation order — and every rounding step — matches the naive network
// exactly), drops clamped rows (their derivative is pinned to zero), and
// lists the free and clamped nodes instead of scanning the clamp mask.
//
// Plan caching and keying live in internal/engine and the splitting in
// internal/mat; this file supplies the plan's runtime binding. The plan is
// exposed as an ode.System so the DSPU's configured integrator (Euler or
// RK4) drives it exactly as it would drive the raw circuit network, and
// planSys.Derivative reproduces circuit.Network.Derivative bit for bit.
// Both engine paths run annealLoop over it: the Planned path under a Split
// plan, the Naive path under the unfolded plan (mat.Couplings.Unfold),
// which folds nothing and re-accumulates the whole of J each evaluation.
package dspu

import (
	"dsgl/internal/engine"
	"dsgl/internal/mat"
)

// CompilePlanDelta implements engine.DeltaBackend by patching the previous
// plan (mat.ClampSplit.Patch); nil declines and sends the engine to a full
// compile.
func (d *DSPU) CompilePlanDelta(prev any, oldClamped, newClamped []bool) any {
	if pl, ok := prev.(*mat.ClampSplit); ok {
		if np := pl.Patch(d.cpl, oldClamped, newClamped); np != nil {
			return np
		}
	}
	return nil
}

// planSys is a clamp plan bound to one inference's state buffers, exposed as
// an ode.System so the configured integrator drives it exactly like the raw
// network. Lives inside the state's dscratch so binding it allocates nothing.
type planSys struct {
	d    *DSPU
	pl   *mat.ClampSplit
	bias []float64 // folded constant coupling currents, len N
	buf  []float64 // per-evaluation coupling buffer, len N
}

// planSystem folds the constant clamp currents for the current inference
// (st.X already carries the clamped values) and returns the state's plan
// system bound to this plan.
func (d *DSPU) planSystem(st *engine.InferState, sc *dscratch, pl *mat.ClampSplit) *planSys {
	ps := &sc.psys
	ps.d = d
	ps.pl = pl
	ps.bias = sc.bias
	ps.buf = sc.coupling
	pl.Static[0].MulVec(st.X, sc.bias)
	return ps
}

// Dim implements ode.System.
func (ps *planSys) Dim() int { return ps.d.N }

// Derivative implements ode.System: circuit.Network.Derivative of the
// quadratic network with the constant clamp currents re-emitted from the
// folded bias instead of re-accumulated. Every floating-point operation on
// a free node's derivative is the operation the raw network performs, in
// the same order.
func (ps *planSys) Derivative(_ float64, x, dst []float64) {
	nw := ps.d.Net
	pl := ps.pl
	pl.Dyn[0].MulVecAdd(x, ps.bias, ps.buf)
	for _, i := range pl.Clamped {
		dst[i] = 0
	}
	for _, i := range pl.Free {
		d := ps.buf[i] + nw.H[i]*x[i]
		if x[i] >= nw.VRail && d > 0 {
			d = 0
		} else if x[i] <= -nw.VRail && d < 0 {
			d = 0
		}
		dst[i] = d
	}
}
