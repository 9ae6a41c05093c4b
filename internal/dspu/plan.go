// Clamp-aware compiled inference plans for the dense-path DSPU. During
// clamped annealing the observed nodes never move, so every coupling row
// whose stored columns are all observed is one constant per inference. The
// plan is the mat.ClampSplit of the one-matrix coupling list [J]: it folds
// those rows into a bias computed once, keeps mixed rows whole (so per-step
// accumulation order — and every rounding step — matches the unfolded plan
// exactly), drops clamped rows (their nodes never move), and lists the free
// and clamped nodes instead of scanning the clamp mask.
//
// Plan compilation and caching live in internal/engine and the splitting
// in internal/mat; this file supplies the plan's runtime binding, planSys,
// whose derivative is Eq. 8's node current balance and whose step is one
// forward-Euler step of it. Both engine paths and TraceRun step a planSys:
// the Planned path under a Split plan, the Naive path and TraceRun under
// the unfolded plan (mat.Couplings.Unfold), which folds nothing and
// re-accumulates the whole of J each evaluation.
package dspu

import (
	"math"

	"dsgl/internal/mat"
)

// planSys is a clamp plan bound to one inference's buffers. An engine
// state keeps one as its Scratch, so binding it allocates nothing.
type planSys struct {
	pl    *mat.ClampSplit
	h     []float64 // the DSPU's self-reaction conductances
	bias  []float64 // folded constant coupling currents, len N
	buf   []float64 // per-evaluation coupling currents, len N
	deriv []float64 // dσ/dt of the free nodes, len N
}

// newPlanSys allocates an unbound planSys for d.
func (d *DSPU) newPlanSys() planSys {
	return planSys{h: d.h, bias: make([]float64, d.N), buf: make([]float64, d.N), deriv: make([]float64, d.N)}
}

// unfoldedSys returns a planSys of its own bound at x to the unfolded plan
// of clamped, for TraceRun.
func (d *DSPU) unfoldedSys(clamped []bool, x []float64) *planSys {
	pl := new(mat.ClampSplit)
	d.cpl.Unfold(clamped, pl)
	ps := d.newPlanSys()
	ps.bind(pl, x)
	return &ps
}

// bind binds ps to pl and folds pl's constant clamp currents at x, which
// must already carry the clamped values.
func (ps *planSys) bind(pl *mat.ClampSplit, x []float64) {
	ps.pl = pl
	pl.Static[0].MulVec(x, ps.bias)
}

// derivative writes dσ/dt of every free node at x into ps.deriv: the
// coupling currents (the folded bias, then the rows the plan keeps) plus
// the quadratic self-reaction h_i·σ_i, and at a rail only inward current
// moves a node. Every free node's value is the one the whole of J yields,
// in the same order of operations.
func (ps *planSys) derivative(x []float64) {
	h, buf, deriv := ps.h, ps.buf, ps.deriv
	ps.pl.Dyn[0].MulVecAdd(x, ps.bias, buf)
	for _, i := range ps.pl.Free {
		d := buf[i] + h[i]*x[i]
		if x[i] >= vRail && d > 0 {
			d = 0
		} else if x[i] <= -vRail && d < 0 {
			d = 0
		}
		deriv[i] = d
	}
}

// step takes one forward-Euler step of dt ns from x in place and holds the
// free nodes to the rails. Clamped nodes are never written.
func (ps *planSys) step(x []float64, dt float64) {
	ps.derivative(x)
	for _, i := range ps.pl.Free {
		xi := x[i] + dt*ps.deriv[i]
		if xi < -vRail {
			xi = -vRail
		} else if xi > vRail {
			xi = vRail
		}
		x[i] = xi
	}
}

// residual returns the equilibrium residual max |dσ/dt| over the free
// nodes at x.
func (ps *planSys) residual(x []float64) float64 {
	ps.derivative(x)
	maxD := 0.0
	for _, i := range ps.pl.Free {
		if a := math.Abs(ps.deriv[i]); a > maxD {
			maxD = a
		}
	}
	return maxD
}
