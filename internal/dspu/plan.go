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
// RK4) drives it exactly as it drives the raw circuit network: annealLoop is
// shared between the paths, and planSys.Derivative reproduces
// circuit.Network.Derivative bit for bit — including the noise draw order,
// which visits free nodes in ascending index in both.
package dspu

import (
	"math"

	"dsgl/internal/circuit"
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
	d             *DSPU
	pl            *mat.ClampSplit
	bias          []float64 // folded constant coupling currents, len N
	buf           []float64 // per-evaluation coupling buffer, len N
	noiseScale    float64
	noiseScaleSet bool
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
	if d.Net.Noise.Enabled() && !ps.noiseScaleSet {
		// Replicates circuit.Network.typicalCoupling so the coupler-noise
		// scale — and with it the noise stream — matches the naive path
		// bit for bit.
		var sum float64
		for _, v := range d.Net.J.Val {
			sum += math.Abs(v)
		}
		if d.Net.N == 0 || len(d.Net.J.Val) == 0 {
			ps.noiseScale = 1
		} else {
			ps.noiseScale = sum / float64(d.Net.N)
		}
		ps.noiseScaleSet = true
	}
	return ps
}

// Dim implements ode.System.
func (ps *planSys) Dim() int { return ps.d.N }

// Derivative implements ode.System: circuit.Network.Derivative with the
// constant clamp currents re-emitted from the folded bias instead of
// re-accumulated. Every floating-point operation on a free node's derivative
// is the operation the raw network performs, in the same order.
func (ps *planSys) Derivative(_ float64, x, dst []float64) {
	nw := ps.d.Net
	pl := ps.pl
	pl.Dyn[0].MulVecAdd(x, ps.bias, ps.buf)
	noisy := nw.Noise.Enabled()
	var cs, ns float64
	if noisy {
		cs = nw.Noise.CouplerSigma
		ns = nw.Noise.NodeSigma
	}
	invC := 1 / nw.Capacitance
	for _, i := range pl.Clamped {
		dst[i] = 0
	}
	for _, i := range pl.Free {
		coupling := ps.buf[i]
		if noisy && cs > 0 {
			coupling += nw.Noise.RNG.NormScaled(0, cs*ps.noiseScale)
		}
		var self float64
		switch nw.Self {
		case circuit.Linear:
			self = nw.H[i]
		case circuit.Quadratic: // the DSPU constructors always use this
			self = nw.H[i] * x[i]
		}
		d := invC * (coupling + self)
		if noisy && ns > 0 {
			d += nw.Noise.RNG.NormScaled(0, ns)
		}
		if x[i] >= nw.VRail && d > 0 {
			d = 0
		} else if x[i] <= -nw.VRail && d < 0 {
			d = 0
		}
		dst[i] = d
	}
}
