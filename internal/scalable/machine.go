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
// default", never "literally zero". Where a literal zero is meaningful and
// differs from the default (SwitchOverheadNs), a negative value is the
// explicit "zero/off" sentinel, as noted on the field.
type Config struct {
	// Lanes is L, the analog lanes per exporting portal. The paper uses 30.
	Lanes int
	// Dt is the integration timestep in ns. Default 0.1 (a tenth of the
	// ~1 ns node time constant).
	Dt float64
	// MaxTimeNs bounds one inference. Default 20000 ns (Fig. 11's axis).
	MaxTimeNs float64
	// SettleTol stops the run when max |dσ/dt| falls below it. Default 1e-5.
	SettleTol float64
	// VRail bounds node voltages. Default 1.
	VRail float64
	// SyncIntervalNs is the inter-mapping synchronization interval
	// (Sec. V.D / Fig. 12): how long each temporal slice ("mapping")
	// stays live before the Switch Controller rotates to the next. Within
	// the live mapping coupling is continuous analog current and needs no
	// synchronization; the inactive mappings' held contributions refresh
	// only when their slice next becomes live — i.e. cross-mapping
	// information exchanges once per synchronization interval. Default
	// 200 ns, the interval the DS-GL hardware supports. Values <= Dt
	// rotate every integration step.
	SyncIntervalNs float64
	// SwitchIntervalNs overrides the slice rotation period when non-zero;
	// by default it equals SyncIntervalNs (rotation IS the
	// synchronization mechanism).
	SwitchIntervalNs float64
	// SwitchOverheadNs is the dead time per mapping switch while the
	// In-CU Weight Buffers redrive the crossbar DACs and the schedulers
	// reload routing state (default 20 ns); it counts toward latency but
	// performs no annealing. Pass a negative value to model free switching
	// (an overhead of literally zero).
	SwitchOverheadNs float64
	// TemporalDisabled selects the DS-GL-Spatial variant: couplings beyond
	// one round are dropped instead of time-multiplexed.
	TemporalDisabled bool
	// ShardWorkers enables the software-sharded anneal (shard.go): the
	// graph is partitioned into up to ShardWorkers groups of Louvain
	// super-communities and each partition anneals on its own goroutine,
	// exchanging cross-partition contributions every ShardSyncNs. 0 or 1
	// keeps the exact sequential path; noisy configurations always do
	// (one RNG stream cannot be split across concurrent shards
	// deterministically).
	ShardWorkers int
	// ShardSyncNs is the cross-shard synchronization interval (default:
	// SyncIntervalNs, the hardware sync rate — the software analog of the
	// paper's multi-mapping synchronization). Values <= Dt would exchange
	// every integration step, where the exact path is the bit-identical
	// (and cheaper) implementation, so the machine routes there instead.
	ShardSyncNs float64
	// NodeNoise / CouplerNoise are relative Gaussian disturbance sigmas
	// (Fig. 13). Zero disables noise.
	NodeNoise, CouplerNoise float64
	// Seed drives free-node initialization and noise.
	Seed uint64
}

func (c *Config) fillDefaults() {
	if c.Lanes == 0 {
		c.Lanes = 30
	}
	if c.Dt == 0 {
		c.Dt = 0.1
	}
	if c.MaxTimeNs == 0 {
		c.MaxTimeNs = 20000
	}
	if c.SettleTol == 0 {
		c.SettleTol = 1e-5
	}
	if c.VRail == 0 {
		c.VRail = 1
	}
	if c.SyncIntervalNs == 0 {
		c.SyncIntervalNs = 200
	}
	if c.SwitchIntervalNs == 0 {
		c.SwitchIntervalNs = c.SyncIntervalNs
	}
	if c.ShardSyncNs == 0 {
		c.ShardSyncNs = c.SyncIntervalNs
	}
	if c.SwitchOverheadNs == 0 {
		c.SwitchOverheadNs = 20
	}
	if c.SwitchOverheadNs < 0 {
		c.SwitchOverheadNs = 0
	}
}

// errNoSteps rejects a configuration whose time budget cannot fit a single
// integration step. Shared by the naive and planned loops.
var errNoSteps = errors.New("scalable: MaxTimeNs shorter than one timestep")

// settleResidualFactor relaxes SettleTol for the full-residual settle
// check: the live-slice derivative must beat SettleTol itself, while the
// true (all-couplings-fresh) residual — which carries sample-and-hold
// staleness in temporal mode — must beat SettleTol * settleResidualFactor.
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
// the engine owns observation validation, the clamp-plan cache, seeding,
// and batch fan-out; the Machine supplies the co-annealing dynamics.
type Machine struct {
	N      int
	cfg    Config
	params *train.Params
	assign *community.Assignment
	intra  *mat.CSR   // intra-PE couplings (always live, always fresh)
	phases []*mat.CSR // inter-PE couplings per temporal slice
	// cpl is the coupling list [intra, slice 0, slice 1, ...] the clamp
	// plans split (plan.go) and the energies and EffectiveJ reduce.
	cpl   *mat.Couplings
	stats Stats

	// The engine is created lazily on first use: tests construct bare
	// Machine literals (&Machine{N: ..., intra: ...}) that never infer.
	engOnce sync.Once
	eng     *engine.Engine

	// Sharded-anneal structures, built lazily on first use (shard.go):
	// shardGroups partitions the nodes by super-community groups (nil when
	// this machine cannot shard) and combined merges intra plus every
	// temporal slice into one always-live coupling matrix.
	shardOnce   sync.Once
	shardGroups [][]int
	combined    *mat.CSR
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

	// shard is the sharded-anneal arena (shard.go), allocated on the
	// state's first sharded run; nil until then, so states that never run
	// the sharded path pay nothing.
	shard *shardScratch
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

// Dim is the state dimension.
func (m *Machine) Dim() int { return m.N }

// Rails is the voltage rail bound observations must respect.
func (m *Machine) Rails() float64 { return m.cfg.VRail }

// BaseSeed is the configured seed; window i of a batch runs with BaseSeed+i.
func (m *Machine) BaseSeed() uint64 { return m.cfg.Seed }

// CompilePlan splits the coupling list against the clamp pattern (see
// plan.go).
func (m *Machine) CompilePlan(clamped []bool) any { return m.cpl.Split(clamped) }

// RunPlanned runs the clamp-plan hot loop on a prepared state.
func (m *Machine) RunPlanned(st *engine.InferState, plan any) (*engine.Result, error) {
	return m.inferPlanned(st, plan.(*mat.ClampSplit))
}

// RunNaive runs the naive reference loop on a prepared state.
func (m *Machine) RunNaive(st *engine.InferState) (*engine.Result, error) {
	return m.inferNaive(st)
}

// refreshPhase re-evaluates slice k's held contribution from the fresh
// state: subtract the stale current, recompute, add the fresh one.
func (m *Machine) refreshPhase(st *engine.InferState, sc *scratch, k int) {
	contrib := sc.contrib[k]
	interSum := sc.interSum
	for i, v := range contrib {
		interSum[i] -= v
	}
	m.phases[k].MulVec(st.X, contrib)
	for i, v := range contrib {
		interSum[i] += v
	}
}

// The Machine is the sharding-capable backend of the shared engine.
var _ engine.ShardedBackend = (*Machine)(nil)

// The Machine also delta-compiles clamp plans for streaming inference.
var _ engine.DeltaBackend = (*Machine)(nil)

// inferNaive is the reference co-annealing loop: every coupling matrix is
// re-evaluated in full every step, with no clamp-aware folding. It is kept
// callable (a Naive engine.Request) as the ground truth the plan-path
// bit-identity invariant verifies against, and as the baseline
// BenchmarkInferNaive measures.
func (m *Machine) inferNaive(st *engine.InferState) (*engine.Result, error) {
	sc := st.Scratch.(*scratch)
	x := st.X
	clamped := st.Clamped
	steps := int(m.cfg.MaxTimeNs / m.cfg.Dt)
	if steps < 1 {
		return nil, errNoSteps
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
	m.phases[0].MulVec(x, sc.contrib[0])
	for i, v := range sc.contrib[0] {
		interSum[i] += v
	}
	if st.WarmStart {
		// Streaming warm tick: x is the previous tick's equilibrium, so
		// every held slice is seeded from it up front — exactly the
		// sample-and-hold current a settled past state would be carrying —
		// instead of contributing nothing until the rotation first reaches
		// it. Without this a warm tick pays a full slice cycle before the
		// dynamics even see all couplings, no matter how close its init is.
		for k := 1; k < len(m.phases); k++ {
			m.refreshPhase(st, sc, k)
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
	// Steps per full slice cycle, for the temporal-mode convergence check.
	checkEvery := int(m.cfg.SwitchIntervalNs*float64(len(m.phases))/m.cfg.Dt) + 1
	if checkEvery < 32 {
		checkEvery = 32
	}
	nextFine := 0 // earliest step for the next warm fine-grained check

	for s := 0; s < steps; s++ {
		m.intra.MulVec(x, intraCur)
		m.refreshPhase(st, sc, phase)
		maxD := 0.0
		for i := 0; i < m.N; i++ {
			if clamped[i] {
				deriv[i] = 0
				continue
			}
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
		for i := 0; i < m.N; i++ {
			x[i] += m.cfg.Dt * deriv[i]
		}
		mat.Clamp(x, -m.cfg.VRail, m.cfg.VRail)
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

		// Convergence: a single-slice mapping settles when its own residual
		// vanishes; a multiplexed mapping carries switching ripple, so the
		// true (full-coupling) residual is checked once per slice cycle.
		// Each full-residual evaluation is captured as lastResidual so the
		// Result can report the equilibrium residual at convergence.
		if len(m.phases) == 1 {
			if maxD < m.cfg.SettleTol {
				lastResidual = m.fullResidual(x, clamped, sc.resBuf)
				if lastResidual < m.cfg.SettleTol*settleResidualFactor {
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
			// check only, bit-for-bit as before.
			if st.WarmStart && s >= nextFine && maxD < m.cfg.SettleTol {
				lastResidual = m.fullResidual(x, clamped, sc.resBuf)
				if lastResidual < m.cfg.SettleTol*settleResidualFactor {
					settled = true
					break
				}
				nextFine = s + warmFineBackoff
			}
			if s%checkEvery == checkEvery-1 {
				lastResidual = m.fullResidual(x, clamped, sc.resBuf)
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

// fullResidual evaluates max |dσ/dt| with every coupling live and fresh —
// the true equilibrium condition of the underlying dynamical system. buf is
// caller-provided scratch of length m.N: residual checks sit inside the
// anneal loop and must not allocate.
func (m *Machine) fullResidual(x []float64, clamped []bool, buf []float64) float64 {
	m.intra.MulVec(x, buf)
	for _, ph := range m.phases {
		// Accumulate directly into buf instead of via a temporary.
		for i := 0; i < ph.Rows; i++ {
			var sum float64
			for p := ph.RowPtr[i]; p < ph.RowPtr[i+1]; p++ {
				sum += ph.Val[p] * x[ph.ColIdx[p]]
			}
			buf[i] += sum
		}
	}
	maxD := 0.0
	for i := 0; i < m.N; i++ {
		if clamped[i] {
			continue
		}
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

// ResidualAt evaluates the true equilibrium residual max |dσ/dt| at state x
// with every coupling live and fresh, skipping nodes marked in clamped (nil
// = no node clamped). It is the exported, allocating face of the in-loop
// residual check: the invariant "Settled implies residual < 10*SettleTol"
// is verifiable from outside the anneal loop with exactly the quantity the
// loop used.
func (m *Machine) ResidualAt(x []float64, clamped []bool) (float64, error) {
	if len(x) != m.N {
		return 0, fmt.Errorf("scalable: state has %d entries, want %d", len(x), m.N)
	}
	if clamped == nil {
		clamped = make([]bool, m.N)
	} else if len(clamped) != m.N {
		return 0, fmt.Errorf("scalable: clamp mask has %d entries, want %d", len(clamped), m.N)
	}
	return m.fullResidual(x, clamped, make([]float64, m.N)), nil
}

// SettleResidualTol is the residual bound a Settled result guarantees:
// whenever Result.Settled is true, ResidualAt at the settled state is below
// SettleTol * settleResidualFactor.
func (m *Machine) SettleResidualTol() float64 {
	return m.cfg.SettleTol * settleResidualFactor
}

// EnergyAt evaluates the real-valued Hamiltonian of the compiled system
// (all couplings, intra and inter) at state x.
func (m *Machine) EnergyAt(x []float64) float64 { return m.cpl.EnergyAt(x, m.params.H) }

// ClampedEnergyAt evaluates the conditional Hamiltonian of the free
// subsystem given the clamped nodes, the Lyapunov function of clamped
// annealing (see mat.Couplings.ClampedEnergyAt).
func (m *Machine) ClampedEnergyAt(x []float64, clamped []bool) float64 {
	return m.cpl.ClampedEnergyAt(x, clamped, m.params.H)
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

// EffectiveJ reconstructs the total coupling matrix the compiled machine
// realizes (intra + all slices); for a lossless compilation this equals
// the trained J. Used by tests and by the DS-GL-Spatial accuracy
// accounting.
func (m *Machine) EffectiveJ() *mat.Dense { return m.cpl.EffectiveJ() }
