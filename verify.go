package dsgl

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"dsgl/internal/datasets"
	"dsgl/internal/engine"
	"dsgl/internal/ising"
	"dsgl/internal/opt"
	"dsgl/internal/scalable"
	"dsgl/internal/verify"
)

// Structured invariant-verification report types, re-exported from
// internal/verify (the same convention as Dataset = datasets.Dataset).
type (
	// VerifyReport is the structured outcome of Verify: one VerifyCheck per
	// invariant, each carrying zero or more VerifyViolations.
	VerifyReport = verify.Report
	// VerifyCheck is the outcome of one invariant check.
	VerifyCheck = verify.Check
	// VerifyViolation describes one contract divergence.
	VerifyViolation = verify.Violation
)

// VerifyOptions tunes an invariant-verification run.
type VerifyOptions struct {
	// Windows caps the probe windows drawn from the head of the test split
	// (default 8). Every probe feeds the settle-residual and the
	// sequential/parallel checks; the first EnergyProbes feed the per-step
	// energy trace.
	Windows int
	// EnergyProbes is how many probe windows record full per-step energy
	// traces for the descent check (default 2; tracing evaluates the
	// Hamiltonian every integration step, so it is the expensive part).
	EnergyProbes int
	// Workers sizes the pool of the parallel half of the seq/par identity
	// check. 0 selects the model's Options.Workers.
	Workers int
}

func (o *VerifyOptions) fillDefaults() {
	if o.Windows <= 0 {
		o.Windows = 8
	}
	if o.EnergyProbes <= 0 {
		o.EnergyProbes = 2
	}
	if o.EnergyProbes > o.Windows {
		o.EnergyProbes = o.Windows
	}
}

// Energy-descent ripple tolerances (relative to the trace's dynamic range).
// A single-slice machine is an exact gradient flow of the compiled
// Hamiltonian, so only forward-Euler discretization slack is allowed; a
// time-multiplexed machine anneals under sample-and-hold currents, whose
// slice switches put bounded ripple on the true energy.
const (
	descentRelSingle = 1e-6
	descentRelMulti  = 0.05
	descentNetRel    = 0 // every trace must end no higher than it began
)

// probes is what every invariant check shares: the probe windows, their
// observations, the sequential reference results (window i annealed with
// seed+i on the Planned path) and the options.
type probes struct {
	windows []datasets.Window
	obs     [][]engine.Observation
	seq     []*engine.Result
	seed    uint64
	opts    VerifyOptions
}

// requests seeds probe i with seed+i on the given path.
func (p *probes) requests(path engine.Path) []engine.Request {
	reqs := make([]engine.Request, len(p.obs))
	for i, obs := range p.obs {
		reqs[i] = engine.Request{Obs: obs, Seed: p.seed + uint64(i), Path: path}
	}
	return reqs
}

// run infers every probe in order on eng along path.
func (p *probes) run(eng *engine.Engine, path engine.Path) ([]*engine.Result, error) {
	return eng.RunBatch(p.requests(path), 1)
}

// reinfer re-infers every probe on eng along path and records a violation
// of c's invariant for each result that is not bit-identical to ref.
func (p *probes) reinfer(c *VerifyCheck, eng *engine.Engine, path engine.Path, ref []*engine.Result) error {
	got, err := p.run(eng, path)
	if err != nil {
		return fmt.Errorf("dsgl: verify %s probes: %w", c.Invariant, err)
	}
	for i := range got {
		c.Violations = append(c.Violations,
			verify.ResultsEqual(c.Invariant, fmt.Sprintf("probe %d", i), ref[i], got[i])...)
	}
	return nil
}

// invariantCheck is one row of the verification table. check fills c's
// violations and detail (or skips it); an error means the harness itself
// could not run.
type invariantCheck struct {
	invariant, name string
	// noiseSkip, when non-empty, is why the check is skipped on a model
	// with injected analog noise.
	noiseSkip string
	check     func(m *Model, p *probes, c *VerifyCheck) error
}

// invariantChecks lists the ten contracts in report order; the
// internal/verify package doc states each one.
var invariantChecks = []invariantCheck{
	{verify.InvEnergyDescent, "monotone energy descent",
		"analog noise injected; per-step descent not guaranteed", (*Model).checkEnergyDescent},
	{verify.InvSettleResidual, "equilibrium residual at settle", "", (*Model).checkSettleResidual},
	{verify.InvSnapshotRoundTrip, "Save/Load machine equivalence", "", (*Model).checkSnapshotRoundTrip},
	{verify.InvSeqParIdentity, "sequential/parallel bit-identity", "", (*Model).checkSeqParIdentity},
	{verify.InvLosslessCompile, "lossless compilation", "", (*Model).checkLosslessCompile},
	{verify.InvPlanNaiveIdentity, "clamp-plan/naive bit-identity", "", (*Model).checkPlanNaiveIdentity},
	{verify.InvShardedFixedPoint, "sharded/sequential fixed-point agreement",
		"analog noise injected; the sharded anneal always defers to the exact path", (*Model).checkShardedFixedPoint},
	{verify.InvWarmStartFixedPoint, "warm-start/cold fixed-point agreement",
		"analog noise injected; warm and cold anneals draw diverging noise streams", (*Model).checkWarmStartFixedPoint},
	{verify.InvOptBestEnergyMonotone, "optimization best-energy consistency", "", (*Model).checkOptBestEnergyMonotone},
	{verify.InvDecomposedK1Identity, "decomposed K=1 / monolithic bit-identity", "", (*Model).checkDecomposedK1Identity},
}

// Verify checks the ten runtime contracts of the DS-GL system (paper
// Sec. III, Eqs. 6-8) against the trained model, on probe windows from
// the head of its test split. The invariants are stated in the
// internal/verify package doc; invariantChecks runs them in that order.
//
// The returned report is structured: rep.Ok() is the overall verdict,
// rep.Fprint renders it for terminals, and rep.Violations() flattens every
// divergence. Verify returns a non-nil error only when it cannot run the
// checks at all (no test windows, snapshot I/O failure); contract
// violations are reported, not returned as errors.
//
// Verify runs against either backend. On a BackendDense model the
// snapshot round trip exercises the dense snapshot format, lossless
// compilation compares the network's realized coupling matrix against the
// tuned J, and the sharded fixed-point check reports itself skipped: the
// dense backend has no community structure to shard.
func Verify(m *Model, opts VerifyOptions) (*VerifyReport, error) {
	if m == nil || m.Dataset == nil || (m.Machine == nil && m.Dspu == nil) {
		return nil, errors.New("dsgl: Verify needs a trained model")
	}
	opts.fillDefaults()
	_, test := m.Dataset.Split()
	if len(test) == 0 {
		return nil, errors.New("dsgl: no test windows to probe")
	}
	p := &probes{windows: test, seed: m.Engine().BaseSeed(), opts: opts}
	if len(p.windows) > opts.Windows {
		p.windows = p.windows[:opts.Windows]
	}
	for _, w := range p.windows {
		obs, err := m.windowObservations(w)
		if err != nil {
			return nil, err
		}
		p.obs = append(p.obs, obs)
	}
	var err error
	if p.seq, err = p.run(m.Engine(), engine.Planned); err != nil {
		return nil, fmt.Errorf("dsgl: probe inference: %w", err)
	}

	rep := &VerifyReport{Target: m.Dataset.Name}
	noisy := m.Opts.NodeNoise > 0 || m.Opts.CouplerNoise > 0
	for _, row := range invariantChecks {
		c := VerifyCheck{Invariant: row.invariant, Name: row.name}
		if noisy && row.noiseSkip != "" {
			c.Skipped, c.Detail = true, row.noiseSkip
		} else if err := row.check(m, p, &c); err != nil {
			return nil, err
		}
		rep.Add(c)
	}
	return rep, nil
}

// Verify is the method form of the package-level Verify.
func (m *Model) Verify(opts VerifyOptions) (*VerifyReport, error) { return Verify(m, opts) }

// clampMask is the model's clamp pattern as a fresh mask.
func (m *Model) clampMask() []bool { return append([]bool(nil), m.observed...) }

// checkEnergyDescent verifies invariant 1: per-step energy traces of the
// first EnergyProbes probes descend, up to ripple.
func (m *Model) checkEnergyDescent(p *probes, c *VerifyCheck) error {
	tol := verify.DescentTol{Abs: 1e-12, Rel: descentRelSingle, NetRel: descentNetRel}
	stride := 1
	// A dense-backend model is a single continuous gradient flow — no slice
	// switching — so it always verifies with the strict per-step tolerance.
	if m.Machine != nil && m.Machine.Stats().Rounds > 1 {
		cfg := m.Machine.Config()
		tol.Rel = descentRelMulti
		// Sample once per slice switch: within a slice the held currents
		// make the measured energy ripple by design, so the descent claim
		// is made on the switch-to-switch envelope.
		stride = max(int(cfg.SwitchIntervalNs/cfg.Dt), 1)
	}
	// The descending quantity is the conditional Hamiltonian given the
	// clamps (see mat.Couplings.ClampedEnergyAt): the raw Hamiltonian that
	// StepInfo.EnergyFn evaluates weights clamp couplings by 1/2 and is not
	// a Lyapunov function of the clamped dynamics.
	clamped := m.clampMask()
	b := m.backend()
	st := b.Engine().NewInferState()
	var trace []float64
	st.SetObserver(func(si engine.StepInfo) {
		if si.Step%stride == 0 {
			trace = append(trace, b.ClampedEnergyAt(si.X, clamped))
		}
	})
	reqs := p.requests(engine.Planned)[:p.opts.EnergyProbes]
	steps := 0
	for i, req := range reqs {
		trace = trace[:0]
		if _, err := b.Engine().Run(st, req); err != nil {
			c.Violations = append(c.Violations, VerifyViolation{
				Invariant: c.Invariant,
				Detail:    fmt.Sprintf("probe %d: %v", i, err),
			})
			continue
		}
		steps += len(trace)
		for _, v := range verify.MonotoneDescent(trace, tol) {
			v.Detail = fmt.Sprintf("probe %d: %s", i, v.Detail)
			c.Violations = append(c.Violations, v)
		}
	}
	c.Detail = fmt.Sprintf("%d probe anneals, %d energy samples, ripple tol %.2g·range",
		len(reqs), steps, tol.Rel)
	return nil
}

// checkSettleResidual verifies invariant 2: every probe reporting Settled
// sits within the backend's full-residual settle bound.
func (m *Model) checkSettleResidual(p *probes, c *VerifyCheck) error {
	clamped := m.clampMask()
	b := m.backend()
	settled := 0
	for i, res := range p.seq {
		if !res.Settled {
			continue
		}
		settled++
		for _, v := range verify.SettledResidual(b, res, clamped) {
			v.Detail = fmt.Sprintf("probe %d: %s", i, v.Detail)
			c.Violations = append(c.Violations, v)
		}
	}
	if settled == 0 {
		c.Skipped = true
		c.Detail = fmt.Sprintf("none of the %d probes settled within MaxInferNs; no equilibrium claim made", len(p.seq))
		return nil
	}
	c.Detail = fmt.Sprintf("%d/%d probes settled, residual bound %.2g", settled, len(p.seq), b.SettleResidualTol())
	return nil
}

// checkSnapshotRoundTrip verifies invariant 3: the model saved and loaded
// back is observationally bit-identical — compilation stats and retained
// mask (scalable), effective coupling matrix, and probe inference.
func (m *Model) checkSnapshotRoundTrip(p *probes, c *VerifyCheck) error {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return fmt.Errorf("dsgl: verify snapshot save: %w", err)
	}
	snapBytes := buf.Len()
	loaded, err := Load(&buf, m.Dataset)
	if err != nil {
		// A failing Load is itself a round-trip violation, not a harness
		// failure.
		c.Violations = append(c.Violations, VerifyViolation{
			Invariant: c.Invariant,
			Detail:    fmt.Sprintf("Load failed on a fresh snapshot: %v", err),
		})
		return nil
	}
	violate := func(format string, args ...any) {
		c.Violations = append(c.Violations, VerifyViolation{Invariant: c.Invariant, Detail: fmt.Sprintf(format, args...)})
	}
	if m.Machine != nil {
		if sa, sb := m.Machine.Stats(), loaded.Machine.Stats(); sa != sb {
			violate("compilation stats diverge: %+v vs %+v", sa, sb)
		}
	}
	c.Violations = append(c.Violations, verify.DenseEqual(c.Invariant,
		"EffectiveJ", m.backend().EffectiveJ(), loaded.backend().EffectiveJ())...)
	if m.mask != nil {
		if loaded.mask == nil || loaded.mask.Rows != m.mask.Rows || loaded.mask.Cols != m.mask.Cols {
			violate("coupling mask shape lost across Save/Load")
		} else {
			diff := 0
			for i := range m.mask.Data {
				if m.mask.Data[i] != loaded.mask.Data[i] {
					diff++
				}
			}
			if diff > 0 {
				violate("coupling mask diverges in %d entries across Save/Load", diff)
			}
		}
	}
	if err := p.reinfer(c, loaded.Engine(), engine.Planned, p.seq); err != nil {
		return err
	}
	c.Detail = fmt.Sprintf("%d-byte snapshot, %d probe windows re-inferred", snapBytes, len(p.obs))
	return nil
}

// checkSeqParIdentity verifies invariant 4: the parallel batch engine is
// bit-identical to the sequential reference, at both the raw batch level
// and the aggregated Evaluate level.
func (m *Model) checkSeqParIdentity(p *probes, c *VerifyCheck) error {
	workers := p.opts.Workers
	if workers <= 0 {
		workers = m.Opts.Workers
	}
	par, err := m.Engine().RunBatch(p.requests(engine.Planned), workers)
	if err != nil {
		return fmt.Errorf("dsgl: verify parallel batch: %w", err)
	}
	for i := range p.seq {
		c.Violations = append(c.Violations,
			verify.ResultsEqual(c.Invariant, fmt.Sprintf("window %d", i), p.seq[i], par[i])...)
	}
	seqRep, err := m.Evaluate(p.windows)
	if err != nil {
		return fmt.Errorf("dsgl: verify sequential evaluate: %w", err)
	}
	parRep, err := m.EvaluateParallel(p.windows, workers)
	if err != nil {
		return fmt.Errorf("dsgl: verify parallel evaluate: %w", err)
	}
	if seqRep.RMSE != parRep.RMSE || seqRep.MAE != parRep.MAE || seqRep.MeanLatencyUs != parRep.MeanLatencyUs {
		c.Violations = append(c.Violations, VerifyViolation{
			Invariant: c.Invariant,
			Detail: fmt.Sprintf("Evaluate vs EvaluateParallel diverge: RMSE %v/%v, MAE %v/%v, latency %v/%v",
				seqRep.RMSE, parRep.RMSE, seqRep.MAE, parRep.MAE, seqRep.MeanLatencyUs, parRep.MeanLatencyUs),
		})
	}
	c.Detail = fmt.Sprintf("%d windows, %d workers", len(p.windows), workers)
	return nil
}

// checkLosslessCompile verifies invariant 5: EffectiveJ == Tuned.J bit for
// bit whenever the compilation dropped no coupling. The dense backend has
// no decomposition, but its network construction is still a realization
// step (dense J → CSR) that must drop only exact zeros.
func (m *Model) checkLosslessCompile(_ *probes, c *VerifyCheck) error {
	if m.Machine != nil {
		st := m.Machine.Stats()
		if st.DroppedCouplings > 0 {
			c.Skipped = true
			c.Detail = fmt.Sprintf("%d couplings deliberately dropped (DS-GL-Spatial overflow); EffectiveJ == Tuned.J does not apply", st.DroppedCouplings)
			return nil
		}
		c.Detail = fmt.Sprintf("%d realized couplings compared", st.IntraCouplings+st.InterCouplings)
	} else {
		c.Detail = fmt.Sprintf("%d realized couplings compared (dense network realization)", m.Tuned.J.NNZ(0))
	}
	c.Violations = verify.DenseEqual(c.Invariant, "EffectiveJ vs Tuned.J", m.backend().EffectiveJ(), m.Tuned.J)
	return nil
}

// checkPlanNaiveIdentity verifies invariant 6: every probe's plan-path
// Result (the sequential reference) is bit-identical to a Naive run with
// the same seed. This is the contract that makes the constant-current
// folding a pure optimization: it may hoist work out of the anneal loop,
// never change a rounding.
func (m *Model) checkPlanNaiveIdentity(p *probes, c *VerifyCheck) error {
	eng := m.Engine()
	if err := p.reinfer(c, eng, engine.Naive, p.seq); err != nil {
		return err
	}
	hits, misses := eng.PlanCacheStats()
	c.Detail = fmt.Sprintf("%d probe windows re-inferred naively; plan cache %d hits / %d misses", len(p.obs), hits, misses)
	return nil
}

// verifyShardWorkers is the shard count the sharded-fixed-point check
// verifies with. Four matches the CI-class core budget the sharded anneal
// targets; ShardNodes caps the effective count at the community (PE) count,
// so small graphs verify with whatever parallelism they actually support.
const verifyShardWorkers = 4

// shardedFixedPointTol converts the settle-residual bound into a node-wise
// voltage tolerance: at a settled state every free node's residual
// |Σ J_ij x_j + h_i x_i| is below the bound, so to first order two settled
// states differ per node by at most 2·bound/|h_i|. The extra factor of two
// covers the free-free coupling feedback the per-node linearization drops
// (trained DS-GL systems keep that block weak — the closed-form solve
// couples unknowns to observations, not to each other).
func shardedFixedPointTol(h []float64, residBound float64) float64 {
	minH := math.Inf(1)
	for _, v := range h {
		if a := math.Abs(v); a > 0 && a < minH {
			minH = a
		}
	}
	if math.IsInf(minH, 1) {
		return residBound
	}
	return 4 * residBound / minH
}

// checkShardedFixedPoint verifies invariant 7 on a sharding-enabled twin of
// the machine (same tuned parameters, assignment, and mask — only
// ShardWorkers differs), so the invariant is exercised even when the model
// itself runs with sharding off; the twin and the reference share every
// probe seed.
func (m *Model) checkShardedFixedPoint(p *probes, c *VerifyCheck) error {
	if m.Machine == nil {
		c.Skipped = true
		c.Detail = "dense backend has no community structure to shard"
		return nil
	}
	cfg := m.Machine.Config()
	cfg.ShardWorkers = verifyShardWorkers
	cfg.ShardSyncNs = m.Opts.ShardSyncNs
	twin, err := scalable.Build(m.Tuned, m.Assignment, m.mask, cfg)
	if err != nil {
		return fmt.Errorf("dsgl: verify sharded twin compilation: %w", err)
	}
	if twin.ShardCount() < 2 {
		c.Skipped = true
		c.Detail = "graph yields fewer than two community shards; sharded anneal never engages"
		return nil
	}
	tol := shardedFixedPointTol(m.Tuned.H, twin.SettleResidualTol())
	sharded, err := p.run(twin.Engine(), engine.Sharded)
	if err != nil {
		return fmt.Errorf("dsgl: verify sharded probes: %w", err)
	}
	settled := 0
	for i, res := range sharded {
		if p.seq[i].Settled {
			settled++
		}
		c.Violations = append(c.Violations,
			verify.FixedPoint(c.Invariant, fmt.Sprintf("probe %d", i), p.seq[i], res, tol)...)
	}
	if settled == 0 {
		c.Skipped = true
		c.Detail = fmt.Sprintf("none of the %d probes settled on the exact path; no fixed-point claim made", len(p.obs))
		return nil
	}
	c.Detail = fmt.Sprintf("%d shards, %d/%d settled probes compared, node tolerance %.2g",
		twin.ShardCount(), settled, len(p.obs), tol)
	return nil
}

// checkWarmStartFixedPoint verifies invariant 8 by streaming the probe
// windows as consecutive warm-started ticks (see engine.Stream). The first
// tick of a stream IS a cold inference and must match the reference bit
// for bit; the warm ticks carry a different trajectory to the same
// attractor and are compared within the invariant-7 tolerance.
func (m *Model) checkWarmStartFixedPoint(p *probes, c *VerifyCheck) error {
	if len(p.obs) < 2 {
		c.Skipped = true
		c.Detail = "need at least two probe windows to take a warm-started tick"
		return nil
	}
	tol := shardedFixedPointTol(m.Tuned.H, m.backend().SettleResidualTol())
	s := m.Engine().OpenStream()
	defer s.Close()
	settled := 0
	var coldSteps, warmSteps int
	for i, obs := range p.obs {
		res, err := s.Tick(obs, p.seed+uint64(i))
		if err != nil {
			return fmt.Errorf("dsgl: verify stream tick %d: %w", i, err)
		}
		if i == 0 {
			c.Violations = append(c.Violations,
				verify.ResultsEqual(c.Invariant, "tick 0 (cold)", p.seq[0], res)...)
			continue
		}
		if p.seq[i].Settled {
			settled++
			coldSteps += p.seq[i].Steps
			warmSteps += res.Steps
		}
		c.Violations = append(c.Violations,
			verify.FixedPoint(c.Invariant, fmt.Sprintf("tick %d", i), p.seq[i], res, tol)...)
	}
	if settled == 0 {
		c.Skipped = true
		c.Detail = fmt.Sprintf("none of the %d cold references settled; no fixed-point claim made", len(p.obs))
		return nil
	}
	c.Detail = fmt.Sprintf("%d warm ticks against settled cold references (steps %d warm vs %d cold), node tolerance %.2g",
		settled, warmSteps, coldSteps, tol)
	return nil
}

// Fixed probe parameters for the optimization invariant (9): an instance
// small enough to solve in milliseconds but rugged enough that the six
// restarts land on genuinely different energies before the running minimum
// flattens, so the trace check is non-vacuous.
const (
	optVerifyNodes    = 24
	optVerifyDegree   = 4
	optVerifySteps    = 80
	optVerifyRestarts = 6
	optVerifyWorkers  = 4
)

// checkOptBestEnergyMonotone verifies invariant 9 on a self-contained
// probe: a seeded Gset-style MaxCut instance solved by the Metropolis
// backend through the engine's multi-restart fan-out, once sequentially
// and once at optVerifyWorkers workers. The probe is independent of the
// trained model by design — the invariant guards the engine's optimization
// face, which every model shares — but it is seeded from the model so
// distinct models exercise distinct instances.
func (m *Model) checkOptBestEnergyMonotone(p *probes, c *VerifyCheck) error {
	g, err := opt.RandomGraph(optVerifyNodes, optVerifyDegree, false, p.seed)
	if err != nil {
		return fmt.Errorf("dsgl: verify opt probe instance: %w", err)
	}
	model, err := g.ToIsing()
	if err != nil {
		return fmt.Errorf("dsgl: verify opt probe lowering: %w", err)
	}
	solver, err := ising.NewSolver(model, ising.MetropolisDynamics, p.seed)
	if err != nil {
		return fmt.Errorf("dsgl: verify opt probe solver: %w", err)
	}
	eng := engine.NewOpt(solver)
	sched := engine.GeometricSchedule(optVerifySteps, 2, 0.05)
	seqRun, err := eng.SolveFrom(sched, p.seed, optVerifyRestarts, 1)
	if err != nil {
		return fmt.Errorf("dsgl: verify opt sequential solve: %w", err)
	}
	parRun, err := eng.SolveFrom(sched, p.seed, optVerifyRestarts, optVerifyWorkers)
	if err != nil {
		return fmt.Errorf("dsgl: verify opt parallel solve: %w", err)
	}
	c.Violations = append(c.Violations,
		verify.OptBestEnergyMonotone("workers=1", seqRun, solver.EnergyOf)...)
	c.Violations = append(c.Violations,
		verify.OptBestEnergyMonotone(fmt.Sprintf("workers=%d", optVerifyWorkers), parRun, solver.EnergyOf)...)
	c.Violations = append(c.Violations,
		verify.OptRunsIdentical(fmt.Sprintf("workers 1 vs %d", optVerifyWorkers), seqRun, parRun)...)
	c.Detail = fmt.Sprintf("%s via %s: %d restarts at 1 and %d workers, best energy %.6g (cut %g)",
		g.Name, solver.Name(), optVerifyRestarts, optVerifyWorkers,
		seqRun.Best.Energy, g.CutFromEnergy(seqRun.Best.Energy))
	return nil
}

// checkDecomposedK1Identity verifies invariant 10 by retraining from
// m.Opts with only the decomposition fields toggled (RidgeLambda is already
// resolved in a trained model's Opts, so the twins skip lambda selection
// and share every other training input): a monolithic model gets a fresh
// K=1 decomposed twin compared against itself; a K=1 decomposed model gets
// a fresh monolithic twin; a K>1 model cannot be its own reference, so a
// fresh twin pair (monolithic and K=1) is trained and compared to each
// other. Only Tuned is compared — Load aliases Dense to Tuned, so a Dense
// comparison would be vacuous on loaded models.
func (m *Model) checkDecomposedK1Identity(p *probes, c *VerifyCheck) error {
	monoOpts := m.Opts
	monoOpts.Decompose = false
	monoOpts.Classes = 0
	monoOpts.ClassMode = ""
	k1Opts := m.Opts
	k1Opts.Decompose = true
	k1Opts.Classes = 1

	ref, refResults := m, p.seq
	twinOpts := k1Opts
	switch {
	case !m.Opts.Decompose:
		c.Detail = fmt.Sprintf("monolithic model vs fresh K=1 decomposed twin, %d probe windows", len(p.obs))
	case m.Opts.Classes == 1:
		twinOpts = monoOpts
		c.Detail = fmt.Sprintf("K=1 decomposed model vs fresh monolithic twin, %d probe windows", len(p.obs))
	default:
		r, err := Train(m.Dataset, monoOpts)
		if err != nil {
			return fmt.Errorf("dsgl: verify monolithic twin training: %w", err)
		}
		if refResults, err = p.run(r.Engine(), engine.Planned); err != nil {
			return fmt.Errorf("dsgl: verify monolithic twin probes: %w", err)
		}
		ref = r
		c.Detail = fmt.Sprintf("K=%d model; fresh monolithic vs K=1 decomposed twin pair, %d probe windows", m.Opts.Classes, len(p.obs))
	}
	twin, err := Train(m.Dataset, twinOpts)
	if err != nil {
		return fmt.Errorf("dsgl: verify twin training: %w", err)
	}
	c.Violations = append(c.Violations,
		verify.DenseEqual(c.Invariant, "Tuned.J", ref.Tuned.J, twin.Tuned.J)...)
	c.Violations = append(c.Violations,
		verify.VectorsEqual(c.Invariant, "Tuned.H", ref.Tuned.H, twin.Tuned.H)...)
	return p.reinfer(c, twin.Engine(), engine.Planned, refResults)
}
