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
// (internal/engine): observation validation, clamp-plan caching, seeding,
// and batch fan-out live in the engine; this package supplies the node
// dynamics (the circuit network, its clamp-plan compilation, and the
// integration loop).
package dspu

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"dsgl/internal/circuit"
	"dsgl/internal/engine"
	"dsgl/internal/mat"
	"dsgl/internal/ode"
)

// Config collects DSPU runtime parameters.
type Config struct {
	// Dt is the integration timestep in ns. Default 0.05.
	Dt float64
	// MaxTimeNs bounds one annealing run. Default 1000 ns.
	MaxTimeNs float64
	// SettleTol: the run stops early once max |dσ/dt| < SettleTol.
	// Default 1e-6 per ns.
	SettleTol float64
	// VRail bounds voltages. Default 1.
	VRail float64
	// Capacitance sets the node time constant. Default 1.
	Capacitance float64
	// Integrator defaults to forward Euler.
	Integrator ode.Integrator
	// Noise optionally injects node/coupler disturbances (Fig. 13).
	Noise *circuit.NoiseModel
	// Seed for unknown-node initialization.
	Seed uint64
}

func (c *Config) fillDefaults() {
	if c.Dt == 0 {
		c.Dt = 0.05
	}
	if c.MaxTimeNs == 0 {
		c.MaxTimeNs = 1000
	}
	if c.SettleTol == 0 {
		c.SettleTol = 1e-6
	}
	if c.VRail == 0 {
		c.VRail = 1
	}
	if c.Capacitance == 0 {
		c.Capacitance = 1
	}
	if c.Integrator == nil {
		c.Integrator = ode.NewEuler()
	}
}

// DSPU is a single real-valued dynamical-system processing unit holding a
// trained parameter set (J, h).
//
// Concurrency: engine inferences on distinct InferStates are safe to run
// from multiple goroutines — each state carries its own clamp mask,
// coupling scratch, and integrator clone, and the network is only read.
// The exception is a configured noise model, whose RNG is shared: noisy
// inference must stay single-threaded. TraceRun (which sets the network
// clamp set) is also single-threaded by design.
type DSPU struct {
	N   int
	Net *circuit.Network
	cfg Config
	// cpl is the one-matrix coupling list [Net.J] the clamp plans split and
	// the energies reduce; kept as a field so neither allocates per call.
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
// diagonal; every h_i must be strictly negative (the convexity condition
// enforced during training).
func New(j *mat.Dense, h []float64, cfg Config) (*DSPU, error) {
	cfg.fillDefaults()
	net, err := circuit.NewNetwork(j, h, circuit.Config{
		Self:        circuit.Quadratic,
		Capacitance: cfg.Capacitance,
		VRail:       cfg.VRail,
		Noise:       cfg.Noise,
	})
	if err != nil {
		return nil, err
	}
	return &DSPU{N: j.Rows, Net: net, cfg: cfg, cpl: mat.NewCouplings(net.J)}, nil
}

// NewCSR builds a DSPU from a sparse coupling matrix.
func NewCSR(j *mat.CSR, h []float64, cfg Config) (*DSPU, error) {
	cfg.fillDefaults()
	net, err := circuit.NewNetworkCSR(j, h, circuit.Config{
		Self:        circuit.Quadratic,
		Capacitance: cfg.Capacitance,
		VRail:       cfg.VRail,
		Noise:       cfg.Noise,
	})
	if err != nil {
		return nil, err
	}
	return &DSPU{N: j.Rows, Net: net, cfg: cfg, cpl: mat.NewCouplings(net.J)}, nil
}

// dscratch is the DSPU's backend arena inside an engine.InferState.
type dscratch struct {
	deriv    []float64
	bias     []float64 // folded constant coupling currents (plan path)
	coupling []float64 // per-evaluation coupling buffer, shared by both systems
	psys     planSys   // plan-path ode.System, bound per inference
	naive    naiveSys  // naive-path ode.System over the state's clamp mask
	integ    ode.Integrator
}

// naiveSys is the per-state naive reference system: the raw circuit network
// evaluated with the state's own clamp mask and coupling buffer, so two
// states of one DSPU never contend on network scratch (the historical
// ClampSet-on-the-shared-network race).
type naiveSys struct {
	nw      *circuit.Network
	clamped []bool
	buf     []float64
}

// Dim implements ode.System.
func (s *naiveSys) Dim() int { return s.nw.N }

// Derivative implements ode.System.
func (s *naiveSys) Derivative(t float64, x, dst []float64) {
	s.nw.DerivativeMasked(t, x, dst, s.clamped, s.buf)
}

// AttachState allocates the DSPU's scratch arena onto an engine state.
// Called once per InferState by engine.NewInferState.
func (d *DSPU) AttachState(st *engine.InferState) {
	sc := &dscratch{
		deriv:    make([]float64, d.N),
		bias:     make([]float64, d.N),
		coupling: make([]float64, d.N),
		integ:    ode.Clone(d.cfg.Integrator),
	}
	sc.naive = naiveSys{nw: d.Net, clamped: st.Clamped, buf: sc.coupling}
	st.Scratch = sc
}

// Backend contract (engine.Backend): identity and bounds.

// Name prefixes error messages and names the backend in CLIs and reports.
func (d *DSPU) Name() string { return "dspu" }

// Dim is the state dimension.
func (d *DSPU) Dim() int { return d.N }

// Rails is the voltage rail bound observations must respect.
func (d *DSPU) Rails() float64 { return d.cfg.VRail }

// BaseSeed is the configured seed; window i of a batch runs with BaseSeed+i.
func (d *DSPU) BaseSeed() uint64 { return d.cfg.Seed }

// CompilePlan splits the coupling list against the clamp pattern (see
// plan.go).
func (d *DSPU) CompilePlan(clamped []bool) any { return d.cpl.Split(clamped) }

// The DSPU delta-compiles clamp plans for streaming inference (plan.go).
var _ engine.DeltaBackend = (*DSPU)(nil)

// RunPlanned runs the integration loop over the clamp-plan system.
func (d *DSPU) RunPlanned(st *engine.InferState, plan any) (*engine.Result, error) {
	sc := st.Scratch.(*dscratch)
	return d.annealLoop(st, sc, d.planSystem(st, sc, plan.(*mat.ClampSplit)))
}

// RunNaive runs the integration loop over the raw network (per-state mask).
func (d *DSPU) RunNaive(st *engine.InferState) (*engine.Result, error) {
	sc := st.Scratch.(*dscratch)
	return d.annealLoop(st, sc, &sc.naive)
}

// EnergyAt evaluates the real-valued Hamiltonian H_RV at state x.
func (d *DSPU) EnergyAt(x []float64) float64 { return d.cpl.EnergyAt(x, d.Net.H) }

// EffectiveJ reconstructs the dense coupling matrix the network realizes.
// Construction converts the trained J to CSR dropping only exact zeros and
// keeping every surviving entry bit-exact, so EffectiveJ equals the
// constructor's J bit-for-bit; the lossless-realization and snapshot
// round-trip verify invariants compare against it.
func (d *DSPU) EffectiveJ() *mat.Dense { return d.cpl.EffectiveJ() }

// ClampedEnergyAt evaluates the conditional Hamiltonian of the free
// subsystem given the clamped nodes, the Lyapunov function of clamped
// annealing (see mat.Couplings.ClampedEnergyAt).
func (d *DSPU) ClampedEnergyAt(x []float64, clamped []bool) float64 {
	return d.cpl.ClampedEnergyAt(x, clamped, d.Net.H)
}

// ResidualAt evaluates the noise-free equilibrium residual max |dσ/dt| at
// state x, skipping nodes marked in clamped (nil = no node clamped).
func (d *DSPU) ResidualAt(x []float64, clamped []bool) (float64, error) {
	if len(x) != d.N {
		return 0, fmt.Errorf("dspu: state has %d entries, want %d", len(x), d.N)
	}
	if clamped == nil {
		clamped = make([]bool, d.N)
	} else if len(clamped) != d.N {
		return 0, fmt.Errorf("dspu: clamp mask has %d entries, want %d", len(clamped), d.N)
	}
	return d.Net.Residual(x, clamped, make([]float64, d.N)), nil
}

// SettleResidualTol is the residual bound a Settled result guarantees: the
// settle check stops the loop the moment the (deterministic) derivative
// norm falls below SettleTol, at the reported state.
func (d *DSPU) SettleResidualTol() float64 { return d.cfg.SettleTol }

// annealLoop is the integration loop proper, parameterized over the system
// evaluated each step — the per-state naive network view (naive path) or
// its clamp-plan compilation (planSys). Everything outside the Derivative
// evaluation is shared, so the two paths can only differ through the
// derivative values, which the plan construction makes bit-identical.
func (d *DSPU) annealLoop(st *engine.InferState, sc *dscratch, sys ode.System) (*engine.Result, error) {
	x := st.X
	deriv := sc.deriv
	steps := int(d.cfg.MaxTimeNs / d.cfg.Dt)
	if steps < 1 {
		return nil, errors.New("dspu: MaxTimeNs shorter than one timestep")
	}
	t := 0.0
	settled := false
	lastResidual := math.NaN()
	taken := 0
	for s := 0; s < steps; s++ {
		t = sc.integ.Step(sys, t, d.cfg.Dt, x)
		d.Net.ClampRails(x)
		taken = s + 1
		if st.Observer != nil {
			st.Observer(engine.StepInfo{Step: s, TimeNs: t, EnergyFn: st.EnergyFn, X: x})
		}
		// Convergence check every few steps to keep the hot loop tight.
		// Each checked derivative norm is captured as lastResidual so the
		// Result reports the equilibrium residual at convergence.
		if s%8 == 7 {
			sys.Derivative(t, x, deriv)
			lastResidual = mat.NormInf(deriv)
			if lastResidual < d.cfg.SettleTol {
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
		Energy:    d.EnergyAt(x),
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
// clamped, sampling the state every sampleEveryNs. TraceRun drives the
// network directly (it sets the shared clamp set) and is single-threaded.
func (d *DSPU) TraceRun(x0 []float64, obs []engine.Observation, durationNs, sampleEveryNs float64) (*Trace, error) {
	if len(x0) != d.N {
		return nil, fmt.Errorf("dspu: initial state has %d entries, want %d", len(x0), d.N)
	}
	x := mat.CopyVec(x0)
	clamped := make([]int, 0, len(obs))
	for _, o := range obs {
		x[o.Index] = o.Value
		clamped = append(clamped, o.Index)
	}
	d.Net.ClampSet(clamped)

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
		t = d.cfg.Integrator.Step(d.Net, t, d.cfg.Dt, x)
		d.Net.ClampRails(x)
		if t+1e-12 >= nextSample {
			record()
			nextSample += sampleEveryNs
		}
	}
	return tr, nil
}

// Config returns the (defaults-filled) runtime configuration.
func (d *DSPU) Config() Config { return d.cfg }
