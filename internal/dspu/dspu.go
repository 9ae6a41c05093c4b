// Package dspu implements the Real-Valued Dynamical-System Processing Unit
// of paper Sec. III: a BRIM-derived machine whose circulative resistor rings
// replace the linear self-reaction with a quadratic one, letting capacitor
// voltages stabilize at real values instead of polarizing to the rails.
//
// A DSPU performs graph-learning inference by natural annealing: observed
// node voltages are clamped, unknown nodes evolve under the coupling
// currents, and the settled voltages are the predictions (Sec. III.C).
//
// The DSPU is the dense Backend of the shared inference engine
// (internal/engine): observation validation, clamp plans, seeding, batch
// fan-out and the energies live in the engine; this package supplies the
// node dynamics (Eq. 8 over a clamp plan, plan.go) and the forward-Euler
// loop that integrates them.
package dspu

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"dsgl/internal/engine"
	"dsgl/internal/mat"
)

// Config collects DSPU runtime parameters.
type Config struct {
	// Dt is the integration timestep in ns. Default 0.05.
	Dt float64
	// MaxTimeNs bounds one annealing run. Default 1000 ns.
	MaxTimeNs float64
	// Seed for unknown-node initialization.
	Seed uint64
}

const (
	// settleTol stops a run early once max |dσ/dt| < settleTol (per ns).
	settleTol = 1e-6
	// vRail bounds node voltages to [-vRail, +vRail].
	vRail = 1.0
)

func (c *Config) fillDefaults() {
	if c.Dt == 0 {
		c.Dt = 0.05
	}
	if c.MaxTimeNs == 0 {
		c.MaxTimeNs = 1000
	}
}

// DSPU is a single real-valued dynamical-system processing unit holding a
// trained parameter set (J, h).
//
// Concurrency: engine inferences on distinct InferStates are safe to run
// from multiple goroutines — each state carries its own plan binding and
// scratch, and the DSPU is only read. TraceRun allocates its own.
type DSPU struct {
	N int
	// h holds the self-reaction conductances, every one negative.
	h   []float64
	cfg Config
	// cpl is the one-matrix coupling list [J] the engine splits into clamp
	// plans and reduces to energies.
	cpl *mat.Couplings

	// The engine is created lazily on first use, mirroring
	// scalable.Machine: tests may construct literals that never infer.
	engOnce sync.Once
	eng     *engine.Engine
}

// Engine returns the inference engine driving this DSPU, creating it on
// first use.
func (d *DSPU) Engine() *engine.Engine {
	d.engOnce.Do(func() { d.eng = engine.New(d) })
	return d.eng
}

// New builds a DSPU from trained parameters. j must be square with zero
// diagonal and len(h) rows; every h_i must be strictly negative, the
// convexity condition training enforces and the hardware realizes as a
// passive resistor of conductance |h_i|. j is stored as CSR without its
// exact zeros.
func New(j *mat.Dense, h []float64, cfg Config) (*DSPU, error) {
	n := j.Rows
	if j.Cols != n {
		return nil, fmt.Errorf("dspu: coupling matrix must be square, got %dx%d", j.Rows, j.Cols)
	}
	if len(h) != n {
		return nil, fmt.Errorf("dspu: len(h)=%d, want %d", len(h), n)
	}
	for i := 0; i < n; i++ {
		if j.At(i, i) != 0 {
			return nil, fmt.Errorf("dspu: coupling matrix has non-zero diagonal at %d (diag(J)=0 required)", i)
		}
	}
	for i, v := range h {
		if v >= 0 {
			return nil, fmt.Errorf("dspu: quadratic self-reaction requires h[%d] < 0, got %g", i, v)
		}
	}
	cfg.fillDefaults()
	return &DSPU{N: n, h: mat.CopyVec(h), cfg: cfg, cpl: mat.NewCouplings(mat.FromDense(j, 0))}, nil
}

// AttachState allocates the DSPU's scratch arena, the plan binding it
// rebinds per inference, onto an engine state. Called once per InferState
// by engine.NewInferState.
func (d *DSPU) AttachState(st *engine.InferState) {
	ps := d.newPlanSys()
	st.Scratch = &ps
}

// Backend contract (engine.Backend): identity and bounds.

// Name prefixes error messages and names the backend in CLIs and reports.
func (d *DSPU) Name() string { return "dspu" }

// Rails is the voltage rail bound observations must respect.
func (d *DSPU) Rails() float64 { return vRail }

// BaseSeed is the configured seed; window i of a batch runs with BaseSeed+i.
func (d *DSPU) BaseSeed() uint64 { return d.cfg.Seed }

// Couplings is the one-matrix coupling list [J] the engine splits into
// clamp plans. Construction converts the trained J to CSR dropping only
// exact zeros and keeping every surviving entry bit-exact, so the engine's
// EffectiveJ equals the constructor's J bit for bit.
func (d *DSPU) Couplings() *mat.Couplings { return d.cpl }

// SelfReaction is h, the quadratic self-reaction conductances.
func (d *DSPU) SelfReaction() []float64 { return d.h }

// SettleResidualTol is the residual bound a Settled result guarantees: the
// settle check stops the loop the moment the derivative norm falls below
// settleTol, at the reported state.
func (d *DSPU) SettleResidualTol() float64 { return settleTol }

// Anneal is the forward-Euler integration loop over one clamp plan: a
// Split plan on the Planned path, the unfolded plan on the Naive path. The
// two can only differ through the derivative values, which the plan
// construction makes bit-identical. Clamped nodes are never written. Its
// settle check is the plan's residual, which equals the engine's
// ResidualAt bit for bit.
func (d *DSPU) Anneal(st *engine.InferState, pl *mat.ClampSplit) (*engine.Result, error) {
	ps := st.Scratch.(*planSys)
	x := st.X
	ps.bind(pl, x)
	steps := int(d.cfg.MaxTimeNs / d.cfg.Dt)
	if steps < 1 {
		return nil, errors.New("dspu: MaxTimeNs shorter than one timestep")
	}
	t := 0.0
	settled := false
	lastResidual := math.NaN()
	taken := 0
	for s := 0; s < steps; s++ {
		ps.step(x, d.cfg.Dt)
		t += d.cfg.Dt
		taken = s + 1
		if st.Observer != nil {
			st.Observer(engine.StepInfo{Step: s, TimeNs: t, EnergyFn: st.EnergyFn, X: x})
		}
		// Convergence check every few steps to keep the hot loop tight.
		// Each checked derivative norm is captured as lastResidual so the
		// Result reports the equilibrium residual at convergence.
		if s%8 == 7 {
			lastResidual = ps.residual(x)
			if lastResidual < settleTol {
				settled = true
				break
			}
		}
	}
	st.Res = engine.Result{
		Voltage:   x,
		LatencyNs: t,
		AnnealNs:  t,
		Steps:     taken,
		Settled:   settled,
		Residual:  lastResidual,
	}
	return &st.Res, nil
}

// Trace records a voltage trajectory: one sample of the full state per
// SampleEveryNs of simulated time. Used by the Fig. 4 circuit validation.
type Trace struct {
	TimesNs []float64
	States  [][]float64 // States[k][i] = voltage of node i at TimesNs[k]
}

// TraceRun integrates for durationNs from x0 with the given observations
// clamped, sampling the state every sampleEveryNs. It steps the unfolded
// plan, like the Naive path, on buffers of its own.
func (d *DSPU) TraceRun(x0 []float64, obs []engine.Observation, durationNs, sampleEveryNs float64) (*Trace, error) {
	if len(x0) != d.N {
		return nil, fmt.Errorf("dspu: initial state has %d entries, want %d", len(x0), d.N)
	}
	x := mat.CopyVec(x0)
	clamped := make([]bool, d.N)
	for _, o := range obs {
		x[o.Index] = o.Value
		clamped[o.Index] = true
	}
	ps := d.unfoldedSys(clamped, x)

	tr := &Trace{}
	nextSample := 0.0
	t := 0.0
	steps := int(durationNs / d.cfg.Dt)
	record := func() {
		tr.TimesNs = append(tr.TimesNs, t)
		tr.States = append(tr.States, mat.CopyVec(x))
	}
	record()
	nextSample += sampleEveryNs
	for s := 0; s < steps; s++ {
		ps.step(x, d.cfg.Dt)
		t += d.cfg.Dt
		if t+1e-12 >= nextSample {
			record()
			nextSample += sampleEveryNs
		}
	}
	return tr, nil
}
