package scalable

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"dsgl/internal/community"
	"dsgl/internal/engine"
	"dsgl/internal/mat"
	"dsgl/internal/train"
)

// Mode reports which co-annealing method a mapping runs.
type Mode int

const (
	// ModeSpatial is pure Spatial co-annealing: every routed coupling is
	// live simultaneously (communication demand D <= lane budget L).
	ModeSpatial Mode = iota
	// ModeTemporalSpatial time-multiplexes coupling slices (D > L).
	ModeTemporalSpatial
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSpatial:
		return "spatial"
	case ModeTemporalSpatial:
		return "temporal+spatial"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config holds the hardware and runtime parameters of the Scalable DSPU.
//
// Zero-value convention: 0 in any numeric field means "use the documented
// default", never "literally zero".
type Config struct {
	// Lanes is L, the analog lanes per exporting portal. The paper uses 30.
	Lanes int
	// MaxTimeNs bounds one inference. Default 20000 ns (Fig. 11's axis).
	MaxTimeNs float64
	// SyncIntervalNs is the inter-mapping synchronization interval
	// (Sec. V.D / Fig. 12): how long each temporal slice ("mapping")
	// stays live before the Switch Controller rotates to the next. Within
	// the live mapping coupling is continuous analog current and needs no
	// synchronization; the inactive mappings' held contributions refresh
	// only when their slice next becomes live — i.e. cross-mapping
	// information exchanges once per synchronization interval, so this
	// one interval is also the slice rotation period. Default 200 ns, the
	// interval the DS-GL hardware supports. Values <= Dt rotate every
	// integration step.
	SyncIntervalNs float64
	// TemporalDisabled selects the DS-GL-Spatial variant: couplings beyond
	// one round are dropped instead of time-multiplexed.
	TemporalDisabled bool
	// ShardWorkers is ignored.
	//
	// Deprecated: the sharded anneal it enabled was removed. The field
	// remains only while the repo benchmark sets it (ROADMAP item 1).
	ShardWorkers int
	// ShardSyncNs is ignored.
	//
	// Deprecated: it paced the removed sharded anneal; see ShardWorkers.
	ShardSyncNs float64
	// NodeNoise / CouplerNoise are relative Gaussian disturbance sigmas
	// (Fig. 13). Zero disables noise.
	NodeNoise, CouplerNoise float64
	// Seed drives free-node initialization and noise.
	Seed uint64
}

// Dt is the integration timestep in ns, a tenth of the ~1 ns node time
// constant.
const Dt = 0.1

const (
	// settleTol stops a run when max |dσ/dt| falls below it.
	settleTol = 1e-5
	// vRail bounds node voltages to [-vRail, +vRail].
	vRail = 1.0
	// switchOverheadNs is the dead time per mapping switch while the In-CU
	// Weight Buffers redrive the crossbar DACs and the schedulers reload
	// routing state; it counts toward latency but performs no annealing.
	switchOverheadNs = 20
)

func (c *Config) fillDefaults() {
	if c.Lanes == 0 {
		c.Lanes = 30
	}
	if c.MaxTimeNs == 0 {
		c.MaxTimeNs = 20000
	}
	if c.SyncIntervalNs == 0 {
		c.SyncIntervalNs = 200
	}
}

// errNoSteps rejects a configuration whose time budget cannot fit a single
// integration step.
var errNoSteps = errors.New("scalable: MaxTimeNs shorter than one timestep")

// settleResidualFactor relaxes settleTol for the full-residual settle
// check: the live-slice derivative must beat settleTol itself, while the
// true (all-couplings-fresh) residual — which carries sample-and-hold
// staleness in temporal mode — must beat settleTol * settleResidualFactor.
const settleResidualFactor = 10

// warmFineBackoff is the step gap between failed fine-grained settle checks
// on a warm-started temporal tick: once a vanished live-slice derivative
// turns out not to be a true equilibrium (held slices still stale), the
// next full-residual evaluation waits this many steps. Bounds the check
// overhead at one O(nnz) evaluation per backoff window while keeping warm
// ticks free of the one-check-per-slice-cycle floor cold runs have.
const warmFineBackoff = 32

// Stats describes how a mapping compiled onto the hardware.
type Stats struct {
	Mode              Mode
	Rounds            int // temporal slices (1 = pure spatial)
	Lanes             int // L
	MaxPortalDemand   int // D: max distinct nodes any portal must export
	IntraCouplings    int
	InterCouplings    int
	WormholeCouplings int
	DroppedCouplings  int // only non-zero for TemporalDisabled overflows
}

// Machine is a compiled Scalable DSPU mapping ready for inference. It is
// the scalable Backend of the shared inference engine (internal/engine):
// the engine owns observation validation, the clamp plans, seeding, batch
// fan-out and the energies; the Machine supplies the co-annealing
// dynamics.
type Machine struct {
	N      int
	cfg    Config
	params *train.Params
	assign *community.Assignment
	intra  *mat.CSR   // intra-PE couplings (always live, always fresh)
	phases []*mat.CSR // inter-PE couplings per temporal slice
	// cpl is the coupling list [intra, slice 0, slice 1, ...] the engine
	// splits into clamp plans (plan.go) and reduces to energies and the
	// effective J.
	cpl   *mat.Couplings
	stats Stats

	// The engine is created lazily on first use: tests construct bare
	// Machine literals (&Machine{N: ..., intra: ...}) that never infer.
	engOnce sync.Once
	eng     *engine.Engine
}

// Engine returns the inference engine driving this machine, creating it on
// first use.
func (m *Machine) Engine() *engine.Engine {
	m.engOnce.Do(func() { m.eng = engine.New(m) })
	return m.eng
}

// Stats returns the compilation statistics.
func (m *Machine) Stats() Stats { return m.stats }

// Config returns the defaults-filled configuration.
func (m *Machine) Config() Config { return m.cfg }

// scratch is the Machine's backend arena inside an engine.InferState: every
// buffer the anneal hot loop touches beyond the engine-owned voltage vector
// and clamp mask, so that after the state's first use an inference runs
// allocation-free (enforced by TestInferWithZeroAlloc and reported by the
// BenchmarkInferBatch allocs/op column).
type scratch struct {
	intraCur []float64
	deriv    []float64
	interSum []float64
	resBuf   []float64
	contrib  [][]float64

	// Clamp-plan scratch: bias[k] holds the folded constant coupling
	// currents of coupling-list matrix k for the current inference (one
	// entry per row; only fully-clamped rows are non-zero).
	bias [][]float64
}

// AttachState allocates the machine's scratch arena onto an engine state.
// Called once per InferState by engine.NewInferState.
func (m *Machine) AttachState(st *engine.InferState) {
	sc := &scratch{
		intraCur: make([]float64, m.N),
		deriv:    make([]float64, m.N),
		interSum: make([]float64, m.N),
		resBuf:   make([]float64, m.N),
		contrib:  make([][]float64, len(m.phases)),
	}
	// One backing array for all slices keeps the sample-and-hold buffers
	// contiguous in memory (the refresh loop walks them back to back).
	flat := make([]float64, len(m.phases)*m.N)
	for k := range sc.contrib {
		sc.contrib[k] = flat[k*m.N : (k+1)*m.N : (k+1)*m.N]
	}
	sc.bias = make([][]float64, len(m.cpl.Mats))
	biasFlat := make([]float64, len(sc.bias)*m.N)
	for k := range sc.bias {
		sc.bias[k] = biasFlat[k*m.N : (k+1)*m.N : (k+1)*m.N]
	}
	st.Scratch = sc
}

// Backend contract (engine.Backend): identity and bounds.

// Name prefixes error messages and names the backend in CLIs and reports.
func (m *Machine) Name() string { return "scalable" }

// Rails is the voltage rail bound observations must respect.
func (m *Machine) Rails() float64 { return vRail }

// BaseSeed is the configured seed; window i of a batch runs with BaseSeed+i.
func (m *Machine) BaseSeed() uint64 { return m.cfg.Seed }

// Couplings is the coupling list [intra, slice 0, slice 1, ...] the
// engine splits into clamp plans; its sum is the J the machine realizes,
// the trained J whenever the compilation dropped no coupling.
func (m *Machine) Couplings() *mat.Couplings { return m.cpl }

// SelfReaction is h, the trained self-reaction conductances.
func (m *Machine) SelfReaction() []float64 { return m.params.H }

// SettleResidualTol is the residual bound a Settled result guarantees:
// whenever Result.Settled is true, the engine's ResidualAt at the settled
// state is below settleTol * settleResidualFactor.
func (m *Machine) SettleResidualTol() float64 {
	return settleTol * settleResidualFactor
}

// typicalCoupling estimates the nominal coupling-current magnitude for
// multiplicative coupler-noise scaling: the mean |J_ij| over the couplings
// the machine actually realizes (intra plus every temporal slice).
func (m *Machine) typicalCoupling() float64 {
	var sum float64
	cnt := 0
	for _, v := range m.intra.Val {
		sum += math.Abs(v)
		cnt++
	}
	for _, ph := range m.phases {
		for _, v := range ph.Val {
			sum += math.Abs(v)
			cnt++
		}
	}
	if cnt == 0 {
		return 1
	}
	return sum / float64(cnt)
}
