// Clamp-aware compiled inference plans for the dense-path DSPU, mirroring
// internal/scalable/plan.go. During clamped annealing the observed nodes
// never move, so every coupling row whose stored columns are all observed is
// one constant per inference. The plan folds those rows into a bias computed
// once, keeps mixed rows whole (so per-step accumulation order — and every
// rounding step — matches the naive network exactly), drops clamped rows
// (their derivative is pinned to zero), and iterates free-node index lists
// instead of scanning the clamp mask.
//
// Plan caching and keying live in internal/engine; this file only supplies
// the backend's CompilePlan product and its runtime binding. The plan is
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

// planMat is the coupling matrix compiled against a clamp pattern: static
// holds the fully-clamped free rows (folded to a constant bias once per
// inference), dyn the free rows with at least one free column, kept as FULL
// original rows so nothing is reassociated.
type planMat struct {
	static *mat.CSR
	dyn    *mat.CSR
}

// clampPlan is a compiled inference plan for one observation index pattern.
// Immutable after compilation.
type clampPlan struct {
	freeIdx  []int
	clampIdx []int
	j        planMat
}

// compilePlan builds the clamp plan for one observation pattern. Called by
// the engine's plan cache on a miss; the product is immutable and shared.
func (d *DSPU) compilePlan(clamped []bool) *clampPlan {
	pl := &clampPlan{j: compilePlanMat(d.Net.J, clamped)}
	for i, c := range clamped {
		if c {
			pl.clampIdx = append(pl.clampIdx, i)
		} else {
			pl.freeIdx = append(pl.freeIdx, i)
		}
	}
	return pl
}

// compilePlanMat splits one coupling matrix into static (fully-clamped free
// rows) and dyn (mixed free rows, kept whole) parts via mat.SplitRowPlan,
// which carries each stored row over verbatim — order included.
func compilePlanMat(s *mat.CSR, clamped []bool) planMat {
	static, dyn := mat.SplitRowPlan(s, clamped)
	return planMat{static: static, dyn: dyn}
}

// maxPlanDeltaBits bounds the clamp-mask symmetric difference the delta
// compiler accepts; see the scalable backend's constant of the same name.
const maxPlanDeltaBits = 4

// CompilePlanDelta implements engine.DeltaBackend for the dense-path DSPU:
// it patches a previously compiled plan for oldClamped into the plan for
// newClamped, reclassifying only the rows the mask delta touches. The
// product is structurally identical to a full compilePlan — the previous
// plan is never mutated — and nil declines the delta (empty, too large, or
// a foreign plan type), sending the engine to the full compile.
func (d *DSPU) CompilePlanDelta(prev any, oldClamped, newClamped []bool) any {
	pl, ok := prev.(*clampPlan)
	if !ok || len(oldClamped) != d.N || len(newClamped) != d.N {
		return nil
	}
	changed := 0
	for i := range newClamped {
		if oldClamped[i] != newClamped[i] {
			changed++
		}
	}
	if changed == 0 || changed > maxPlanDeltaBits {
		return nil
	}
	d.colRowsOnce.Do(func() { d.jColRows = d.Net.J.ColRows() })
	static, dyn := mat.PatchRowPlan(d.Net.J, pl.j.static, pl.j.dyn, d.jColRows, oldClamped, newClamped)
	np := &clampPlan{
		j:        planMat{static: static, dyn: dyn},
		freeIdx:  make([]int, 0, len(pl.freeIdx)),
		clampIdx: make([]int, 0, len(pl.clampIdx)),
	}
	for i, c := range newClamped {
		if c {
			np.clampIdx = append(np.clampIdx, i)
		} else {
			np.freeIdx = append(np.freeIdx, i)
		}
	}
	return np
}

// planSys is a clamp plan bound to one inference's state buffers, exposed as
// an ode.System so the configured integrator drives it exactly like the raw
// network. Lives inside the state's dscratch so binding it allocates nothing.
type planSys struct {
	d             *DSPU
	pl            *clampPlan
	bias          []float64 // folded constant coupling currents, len N
	buf           []float64 // per-evaluation coupling buffer, len N
	noiseScale    float64
	noiseScaleSet bool
}

// planSystem folds the constant clamp currents for the current inference
// (st.X already carries the clamped values) and returns the state's plan
// system bound to this plan.
func (d *DSPU) planSystem(st *engine.InferState, sc *dscratch, pl *clampPlan) *planSys {
	ps := &sc.psys
	ps.d = d
	ps.pl = pl
	ps.bias = sc.bias
	ps.buf = sc.coupling
	pl.j.static.MulVec(st.X, sc.bias)
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
	pl.j.dyn.MulVecAdd(x, ps.bias, ps.buf)
	noisy := nw.Noise.Enabled()
	var cs, ns float64
	if noisy {
		cs = nw.Noise.CouplerSigma
		ns = nw.Noise.NodeSigma
	}
	invC := 1 / nw.Capacitance
	for _, i := range pl.clampIdx {
		dst[i] = 0
	}
	for _, i := range pl.freeIdx {
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
