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

// Verify checks the ten runtime contracts of the DS-GL system (paper
// Sec. III, Eqs. 6-8) against the trained model:
//
//  1. monotone energy descent while annealing probe windows;
//  2. equilibrium residual below the settle bound whenever Settled is
//     reported;
//  3. Save/Load round-trip equivalence (stats, effective J, and probe
//     inference all bit-identical);
//  4. Evaluate/EvaluateParallel bit-identity on the probe windows;
//  5. lossless compilation (EffectiveJ == Tuned.J when nothing is
//     dropped);
//  6. clamp-plan/naive bit-identity (the compiled constant-folding
//     inference path returns exactly the naive reference loop's Results);
//  7. sharded fixed-point agreement (the community-sharded parallel anneal
//     settles to the sequential equilibrium within the settle-residual
//     tolerance — checked on a sharding-enabled twin of the machine, so it
//     guards the sharded path even for models that run with sharding off);
//  8. warm-start fixed-point agreement (a streaming tick warm-started from
//     the previous window's equilibrium settles to the same fixed point a
//     cold inference of that window reaches, within the same
//     settle-residual tolerance style as 7);
//  9. optimization best-energy consistency (a multi-restart combinatorial
//     solve on a fixed probe instance reports a best-energy trace that is
//     the exact running minimum of its restart energies, the reported best
//     reproduces bit-for-bit under Hamiltonian recomputation, and the
//     whole run is bit-identical at 1 and 4 workers — the optimization
//     face of invariant 4's determinism contract);
//  10. decomposed K=1 / monolithic bit-identity (heterogeneous
//     decomposition with a single interaction class reproduces the
//     monolithic pipeline exactly: same tuned J and h, bit-identical
//     probe inference — so Options.Decompose changes what is fitted only
//     through genuine class structure, never through numerical drift in
//     the block-solve plumbing).
//
// The returned report is structured: rep.Ok() is the overall verdict,
// rep.Fprint renders it for terminals, and rep.Violations() flattens every
// divergence. Verify returns a non-nil error only when it cannot run the
// checks at all (no test windows, snapshot I/O failure); contract
// violations are reported, not returned as errors.
//
// Verify runs against either backend. Checks 1-6, 8, and 10 run on a
// BackendDense model too: the snapshot round-trip (3) exercises the dense
// (v3) snapshot format, and lossless compilation (5) compares the dense
// network's realized coupling matrix against the tuned J; the remaining
// checks go through the same engine entry points as on the scalable
// machine. The sharded fixed-point check (7) is scalable-only — the dense
// backend has no community structure to shard — and reports itself skipped
// there.
func Verify(m *Model, opts VerifyOptions) (*VerifyReport, error) {
	if m == nil || m.Dataset == nil || (m.Machine == nil && m.Dspu == nil) {
		return nil, errors.New("dsgl: Verify needs a trained model")
	}
	opts.fillDefaults()
	_, test := m.Dataset.Split()
	if len(test) == 0 {
		return nil, errors.New("dsgl: no test windows to probe")
	}
	probes := test
	if len(probes) > opts.Windows {
		probes = probes[:opts.Windows]
	}
	obsList := make([][]engine.Observation, len(probes))
	for i, w := range probes {
		obs, err := m.windowObservations(w)
		if err != nil {
			return nil, err
		}
		obsList[i] = obs
	}
	seed := m.Engine().BaseSeed()

	rep := &VerifyReport{Target: m.Dataset.Name}
	rep.Add(m.checkEnergyDescent(obsList[:opts.EnergyProbes], seed))

	// One sequential reference pass feeds checks 2-4.
	seq := make([]*engine.Result, len(probes))
	for i, obs := range obsList {
		res, err := m.Engine().InferSeeded(obs, seed+uint64(i))
		if err != nil {
			return nil, fmt.Errorf("dsgl: probe inference %d: %w", i, err)
		}
		seq[i] = res
	}
	rep.Add(m.checkSettleResidual(seq))
	roundTrip, err := m.checkSnapshotRoundTrip(obsList, seq, seed)
	if err != nil {
		return nil, err
	}
	rep.Add(roundTrip)
	seqPar, err := m.checkSeqParIdentity(probes, obsList, seq, opts.Workers)
	if err != nil {
		return nil, err
	}
	rep.Add(seqPar)
	rep.Add(m.checkLosslessCompile())
	planNaive, err := m.checkPlanNaiveIdentity(obsList, seq, seed)
	if err != nil {
		return nil, err
	}
	rep.Add(planNaive)
	shardFP, err := m.checkShardedFixedPoint(obsList, seq, seed)
	if err != nil {
		return nil, err
	}
	rep.Add(shardFP)
	warmFP, err := m.checkWarmStartFixedPoint(obsList, seq, seed)
	if err != nil {
		return nil, err
	}
	rep.Add(warmFP)
	optCheck, err := checkOptBestEnergyMonotone(seed)
	if err != nil {
		return nil, err
	}
	rep.Add(optCheck)
	decompCheck, err := m.checkDecomposedK1Identity(obsList, seq, seed)
	if err != nil {
		return nil, err
	}
	rep.Add(decompCheck)
	return rep, nil
}

// checkDecomposedK1Identity verifies invariant 10: heterogeneous
// decomposition with a single interaction class IS the monolithic pipeline,
// bit-for-bit. At K=1 the block-diagonal Gram is the full Gram
// (train.BlockRidge vs RidgeInit), the class-refined Louvain partition is
// the Louvain partition label-for-label, and everything downstream is
// deterministic — so the tuned parameters and the probe inference must
// match exactly, never merely to tolerance.
//
// The check retrains from m.Opts with only the decomposition fields
// toggled (RidgeLambda is already resolved in a trained model's Opts, so
// the twins skip lambda selection and share every other training input):
// a monolithic model gets a fresh K=1 decomposed twin compared against
// itself; a K=1 decomposed model gets a fresh monolithic twin; a K>1
// model cannot be its own reference, so a fresh twin pair (monolithic and
// K=1) is trained and compared to each other. Only Tuned is compared —
// Load aliases Dense to Tuned, so a Dense comparison would be vacuous on
// loaded models.
func (m *Model) checkDecomposedK1Identity(obsList [][]engine.Observation, seq []*engine.Result, seed uint64) (VerifyCheck, error) {
	c := VerifyCheck{Invariant: verify.InvDecomposedK1Identity, Name: "decomposed K=1 / monolithic bit-identity"}

	monoOpts := m.Opts
	monoOpts.Decompose = false
	monoOpts.Classes = 0
	monoOpts.ClassMode = ""
	k1Opts := m.Opts
	k1Opts.Decompose = true
	k1Opts.Classes = 1

	var ref, twin *Model
	var refResults []*engine.Result
	switch {
	case !m.Opts.Decompose:
		t, err := Train(m.Dataset, k1Opts)
		if err != nil {
			return c, fmt.Errorf("dsgl: verify K=1 decomposed twin training: %w", err)
		}
		ref, twin, refResults = m, t, seq
		c.Detail = fmt.Sprintf("monolithic model vs fresh K=1 decomposed twin, %d probe windows", len(obsList))
	case m.Opts.Classes == 1:
		t, err := Train(m.Dataset, monoOpts)
		if err != nil {
			return c, fmt.Errorf("dsgl: verify monolithic twin training: %w", err)
		}
		ref, twin, refResults = m, t, seq
		c.Detail = fmt.Sprintf("K=1 decomposed model vs fresh monolithic twin, %d probe windows", len(obsList))
	default:
		r, err := Train(m.Dataset, monoOpts)
		if err != nil {
			return c, fmt.Errorf("dsgl: verify monolithic twin training: %w", err)
		}
		t, err := Train(m.Dataset, k1Opts)
		if err != nil {
			return c, fmt.Errorf("dsgl: verify K=1 decomposed twin training: %w", err)
		}
		ref, twin = r, t
		refResults = make([]*engine.Result, len(obsList))
		for i, obs := range obsList {
			res, err := ref.Engine().InferSeeded(obs, seed+uint64(i))
			if err != nil {
				return c, fmt.Errorf("dsgl: verify monolithic twin probe %d: %w", i, err)
			}
			refResults[i] = res
		}
		c.Detail = fmt.Sprintf("K=%d model; fresh monolithic vs K=1 decomposed twin pair, %d probe windows", m.Opts.Classes, len(obsList))
	}

	c.Violations = append(c.Violations,
		verify.DenseEqual(verify.InvDecomposedK1Identity, "Tuned.J", ref.Tuned.J, twin.Tuned.J)...)
	c.Violations = append(c.Violations,
		verify.VectorsEqual(verify.InvDecomposedK1Identity, "Tuned.H", ref.Tuned.H, twin.Tuned.H)...)
	for i, obs := range obsList {
		res, err := twin.Engine().InferSeeded(obs, seed+uint64(i))
		if err != nil {
			return c, fmt.Errorf("dsgl: verify decomposed twin probe %d: %w", i, err)
		}
		c.Violations = append(c.Violations,
			verify.ResultsEqual(verify.InvDecomposedK1Identity, fmt.Sprintf("probe %d", i), refResults[i], res)...)
	}
	return c, nil
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

// checkOptBestEnergyMonotone verifies invariant 9 on a self-contained probe:
// a seeded Gset-style MaxCut instance lowered to Ising and solved by the
// Metropolis backend through the engine's multi-restart fan-out, once
// sequentially and once at optVerifyWorkers workers. Both runs must carry an
// internally consistent best-energy trace (the exact running minimum of the
// restart energies, with the reported best reproducing bit-for-bit under
// Hamiltonian recomputation) and must be bit-identical to each other. The
// probe is independent of the trained model by design — the invariant guards
// the engine's optimization face, which every model shares — but it is
// seeded from the model so distinct models exercise distinct instances.
func checkOptBestEnergyMonotone(seed uint64) (VerifyCheck, error) {
	c := VerifyCheck{Invariant: verify.InvOptBestEnergyMonotone, Name: "optimization best-energy consistency"}
	g, err := opt.RandomGraph(optVerifyNodes, optVerifyDegree, false, seed)
	if err != nil {
		return c, fmt.Errorf("dsgl: verify opt probe instance: %w", err)
	}
	model, err := g.ToIsing()
	if err != nil {
		return c, fmt.Errorf("dsgl: verify opt probe lowering: %w", err)
	}
	solver, err := ising.NewSolver(model, ising.MetropolisDynamics, seed)
	if err != nil {
		return c, fmt.Errorf("dsgl: verify opt probe solver: %w", err)
	}
	eng := engine.NewOpt(solver)
	sched := engine.GeometricSchedule(optVerifySteps, 2, 0.05)
	seqRun, err := eng.SolveFrom(sched, seed, optVerifyRestarts, 1)
	if err != nil {
		return c, fmt.Errorf("dsgl: verify opt sequential solve: %w", err)
	}
	parRun, err := eng.SolveFrom(sched, seed, optVerifyRestarts, optVerifyWorkers)
	if err != nil {
		return c, fmt.Errorf("dsgl: verify opt parallel solve: %w", err)
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
	return c, nil
}

// Verify is the method form of the package-level Verify.
func (m *Model) Verify(opts VerifyOptions) (*VerifyReport, error) { return Verify(m, opts) }

// clampedEnergyAt evaluates the conditional Hamiltonian given the clamps —
// the Lyapunov function of clamped annealing — on whichever backend the
// model runs.
func (m *Model) clampedEnergyAt(x []float64, clamped []bool) float64 {
	if m.Machine != nil {
		return m.Machine.ClampedEnergyAt(x, clamped)
	}
	return m.Dspu.ClampedEnergyAt(x, clamped)
}

// residualChecker returns the backend's settle-residual surface.
func (m *Model) residualChecker() verify.ResidualChecker {
	if m.Machine != nil {
		return m.Machine
	}
	return m.Dspu
}

// checkEnergyDescent records per-step energy traces on the probe windows
// and checks ripple-bounded monotone descent. Under injected analog noise
// the Lyapunov argument no longer binds step-to-step, so the check is
// skipped.
func (m *Model) checkEnergyDescent(obsList [][]engine.Observation, seed uint64) VerifyCheck {
	c := VerifyCheck{Invariant: verify.InvEnergyDescent, Name: "monotone energy descent"}
	if m.Opts.NodeNoise > 0 || m.Opts.CouplerNoise > 0 {
		c.Skipped = true
		c.Detail = "analog noise injected; per-step descent not guaranteed"
		return c
	}
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
		stride = int(cfg.SwitchIntervalNs / cfg.Dt)
		if stride < 1 {
			stride = 1
		}
	}
	// The descending quantity is the conditional Hamiltonian given the
	// clamps (see scalable.ClampedEnergyAt): the raw Hamiltonian that
	// StepInfo.EnergyFn evaluates weights clamp couplings by 1/2 and is not
	// a Lyapunov function of the clamped dynamics.
	clamped := make([]bool, m.Tuned.Dim())
	copy(clamped, m.observed)
	st := m.Engine().NewInferState()
	var trace []float64
	st.SetObserver(func(si engine.StepInfo) {
		if si.Step%stride == 0 {
			trace = append(trace, m.clampedEnergyAt(si.X, clamped))
		}
	})
	steps := 0
	for i, obs := range obsList {
		trace = trace[:0]
		if _, err := m.Engine().InferWith(st, obs, seed+uint64(i)); err != nil {
			c.Violations = append(c.Violations, VerifyViolation{
				Invariant: verify.InvEnergyDescent,
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
		len(obsList), steps, tol.Rel)
	return c
}

// checkSettleResidual verifies that every probe reporting Settled sits
// within the machine's full-residual settle bound.
func (m *Model) checkSettleResidual(seq []*engine.Result) VerifyCheck {
	c := VerifyCheck{Invariant: verify.InvSettleResidual, Name: "equilibrium residual at settle"}
	clamped := make([]bool, m.Tuned.Dim())
	for i, isObs := range m.observed {
		clamped[i] = isObs
	}
	rc := m.residualChecker()
	settled := 0
	for i, res := range seq {
		if !res.Settled {
			continue
		}
		settled++
		for _, v := range verify.SettledResidual(rc, res, clamped) {
			v.Detail = fmt.Sprintf("probe %d: %s", i, v.Detail)
			c.Violations = append(c.Violations, v)
		}
	}
	if settled == 0 {
		c.Skipped = true
		c.Detail = fmt.Sprintf("none of the %d probes settled within MaxInferNs; no equilibrium claim made", len(seq))
		return c
	}
	c.Detail = fmt.Sprintf("%d/%d probes settled, residual bound %.2g", settled, len(seq), rc.SettleResidualTol())
	return c
}

// checkSnapshotRoundTrip saves the model, loads it back, and demands the
// loaded backend be observationally bit-identical: compilation stats and
// retained mask (scalable), effective coupling matrix, and probe-window
// inference (both backends).
func (m *Model) checkSnapshotRoundTrip(obsList [][]engine.Observation, seq []*engine.Result, seed uint64) (VerifyCheck, error) {
	c := VerifyCheck{Invariant: verify.InvSnapshotRoundTrip, Name: "Save/Load machine equivalence"}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return c, fmt.Errorf("dsgl: verify snapshot save: %w", err)
	}
	snapBytes := buf.Len()
	loaded, err := Load(&buf, m.Dataset)
	if err != nil {
		// A failing Load is itself a round-trip violation, not a harness
		// failure.
		c.Violations = append(c.Violations, VerifyViolation{
			Invariant: verify.InvSnapshotRoundTrip,
			Detail:    fmt.Sprintf("Load failed on a fresh snapshot: %v", err),
		})
		return c, nil
	}
	if m.Machine != nil {
		c.Violations = append(c.Violations, verify.MachinesEquivalent(verify.InvSnapshotRoundTrip, m.Machine, loaded.Machine)...)
	} else {
		// Dense backend: the effective coupling matrix is the whole static
		// state (there is no placement or mask), so bit-compare it directly.
		c.Violations = append(c.Violations, verify.DenseEqual(verify.InvSnapshotRoundTrip,
			"EffectiveJ", m.Dspu.EffectiveJ(), loaded.Dspu.EffectiveJ())...)
	}
	if m.mask != nil {
		if loaded.mask == nil || loaded.mask.Rows != m.mask.Rows || loaded.mask.Cols != m.mask.Cols {
			c.Violations = append(c.Violations, VerifyViolation{
				Invariant: verify.InvSnapshotRoundTrip,
				Detail:    "coupling mask shape lost across Save/Load",
			})
		} else {
			diff := 0
			for i := range m.mask.Data {
				if m.mask.Data[i] != loaded.mask.Data[i] {
					diff++
				}
			}
			if diff > 0 {
				c.Violations = append(c.Violations, VerifyViolation{
					Invariant: verify.InvSnapshotRoundTrip,
					Detail:    fmt.Sprintf("coupling mask diverges in %d entries across Save/Load", diff),
				})
			}
		}
	}
	for i, obs := range obsList {
		res, err := loaded.Engine().InferSeeded(obs, seed+uint64(i))
		if err != nil {
			return c, fmt.Errorf("dsgl: verify probe %d on loaded machine: %w", i, err)
		}
		c.Violations = append(c.Violations,
			verify.ResultsEqual(verify.InvSnapshotRoundTrip, fmt.Sprintf("probe %d", i), seq[i], res)...)
	}
	c.Detail = fmt.Sprintf("%d-byte snapshot, %d probe windows re-inferred", snapBytes, len(obsList))
	return c, nil
}

// checkSeqParIdentity verifies that the parallel batch engine is
// bit-identical to the sequential reference, at both the raw InferBatch
// level and the aggregated Evaluate level.
func (m *Model) checkSeqParIdentity(probes []datasets.Window, obsList [][]engine.Observation, seq []*engine.Result, workers int) (VerifyCheck, error) {
	c := VerifyCheck{Invariant: verify.InvSeqParIdentity, Name: "sequential/parallel bit-identity"}
	if workers <= 0 {
		workers = m.Opts.Workers
	}
	par, err := m.Engine().InferBatch(obsList, workers)
	if err != nil {
		return c, fmt.Errorf("dsgl: verify parallel batch: %w", err)
	}
	for i := range seq {
		c.Violations = append(c.Violations,
			verify.ResultsEqual(verify.InvSeqParIdentity, fmt.Sprintf("window %d", i), seq[i], par[i])...)
	}
	seqRep, err := m.Evaluate(probes)
	if err != nil {
		return c, fmt.Errorf("dsgl: verify sequential evaluate: %w", err)
	}
	parRep, err := m.EvaluateParallel(probes, workers)
	if err != nil {
		return c, fmt.Errorf("dsgl: verify parallel evaluate: %w", err)
	}
	if seqRep.RMSE != parRep.RMSE || seqRep.MAE != parRep.MAE || seqRep.MeanLatencyUs != parRep.MeanLatencyUs {
		c.Violations = append(c.Violations, VerifyViolation{
			Invariant: verify.InvSeqParIdentity,
			Detail: fmt.Sprintf("Evaluate vs EvaluateParallel diverge: RMSE %v/%v, MAE %v/%v, latency %v/%v",
				seqRep.RMSE, parRep.RMSE, seqRep.MAE, parRep.MAE, seqRep.MeanLatencyUs, parRep.MeanLatencyUs),
		})
	}
	c.Detail = fmt.Sprintf("%d windows, %d workers", len(probes), workers)
	return c, nil
}

// checkPlanNaiveIdentity verifies the clamp-plan compiled inference path
// against the naive reference loop: for every probe window the plan-path
// Result (which the sequential reference pass seq already carries — the
// default Planned path runs the plan) must be bit-identical to a Naive
// run with the same seed. This is the contract that makes the
// constant-current folding a pure optimization: it may hoist work out of
// the anneal loop, never change a rounding.
func (m *Model) checkPlanNaiveIdentity(obsList [][]engine.Observation, seq []*engine.Result, seed uint64) (VerifyCheck, error) {
	c := VerifyCheck{Invariant: verify.InvPlanNaiveIdentity, Name: "clamp-plan/naive bit-identity"}
	eng := m.Engine()
	st := eng.NewInferState()
	for i, obs := range obsList {
		naive, err := eng.Run(st, engine.Request{Obs: obs, Seed: seed + uint64(i), Path: engine.Naive})
		if err != nil {
			return c, fmt.Errorf("dsgl: verify naive probe %d: %w", i, err)
		}
		c.Violations = append(c.Violations,
			verify.ResultsEqual(verify.InvPlanNaiveIdentity, fmt.Sprintf("probe %d", i), naive, seq[i])...)
	}
	hits, misses := eng.PlanCacheStats()
	c.Detail = fmt.Sprintf("%d probe windows re-inferred naively; plan cache %d hits / %d misses", len(obsList), hits, misses)
	return c, nil
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

// checkShardedFixedPoint verifies invariant 7: the community-sharded
// parallel anneal settles to the same fixed point as the exact sequential
// reference. The check builds a sharding-enabled twin of the machine (same
// tuned parameters, assignment, and mask — only ShardWorkers differs), so
// the invariant is exercised even when the model itself runs with sharding
// off; the twin and the reference share every probe seed.
func (m *Model) checkShardedFixedPoint(obsList [][]engine.Observation, seq []*engine.Result, seed uint64) (VerifyCheck, error) {
	c := VerifyCheck{Invariant: verify.InvShardedFixedPoint, Name: "sharded/sequential fixed-point agreement"}
	if m.Machine == nil {
		c.Skipped = true
		c.Detail = "dense backend has no community structure to shard"
		return c, nil
	}
	if m.Opts.NodeNoise > 0 || m.Opts.CouplerNoise > 0 {
		c.Skipped = true
		c.Detail = "analog noise injected; the sharded anneal always defers to the exact path"
		return c, nil
	}
	cfg := m.Machine.Config()
	cfg.ShardWorkers = verifyShardWorkers
	cfg.ShardSyncNs = m.Opts.ShardSyncNs
	twin, err := scalable.Build(m.Tuned, m.Assignment, m.mask, cfg)
	if err != nil {
		return c, fmt.Errorf("dsgl: verify sharded twin compilation: %w", err)
	}
	if twin.ShardCount() < 2 {
		c.Skipped = true
		c.Detail = "graph yields fewer than two community shards; sharded anneal never engages"
		return c, nil
	}
	tol := shardedFixedPointTol(m.Tuned.H, twin.SettleResidualTol())
	settled := 0
	eng := twin.Engine()
	st := eng.NewInferState()
	for i, obs := range obsList {
		res, err := eng.Run(st, engine.Request{Obs: obs, Seed: seed + uint64(i), Path: engine.Sharded})
		if err != nil {
			return c, fmt.Errorf("dsgl: verify sharded probe %d: %w", i, err)
		}
		if seq[i].Settled {
			settled++
		}
		c.Violations = append(c.Violations,
			verify.ShardedFixedPoint(fmt.Sprintf("probe %d", i), seq[i], res, tol)...)
	}
	if settled == 0 {
		c.Skipped = true
		c.Detail = fmt.Sprintf("none of the %d probes settled on the exact path; no fixed-point claim made", len(obsList))
		return c, nil
	}
	c.Detail = fmt.Sprintf("%d shards, %d/%d settled probes compared, node tolerance %.2g",
		twin.ShardCount(), settled, len(obsList), tol)
	return c, nil
}

// checkWarmStartFixedPoint verifies invariant 8: streaming the probe
// windows as consecutive warm-started ticks (each free node initialized
// from the previous window's equilibrium; see engine.Stream) settles every
// tick to the same fixed point the cold reference inference of that window
// reached. The first tick of a stream IS a cold inference and must match
// the reference bit-for-bit; the warm ticks carry a different trajectory to
// the same attractor and are compared within the invariant-7 tolerance.
// The check runs on both backends — the stream is an engine-level facility
// — and is skipped under injected analog noise, where warm and cold runs
// draw different noise streams along their different-length trajectories.
func (m *Model) checkWarmStartFixedPoint(obsList [][]engine.Observation, seq []*engine.Result, seed uint64) (VerifyCheck, error) {
	c := VerifyCheck{Invariant: verify.InvWarmStartFixedPoint, Name: "warm-start/cold fixed-point agreement"}
	if m.Opts.NodeNoise > 0 || m.Opts.CouplerNoise > 0 {
		c.Skipped = true
		c.Detail = "analog noise injected; warm and cold anneals draw diverging noise streams"
		return c, nil
	}
	if len(obsList) < 2 {
		c.Skipped = true
		c.Detail = "need at least two probe windows to take a warm-started tick"
		return c, nil
	}
	tol := shardedFixedPointTol(m.Tuned.H, m.residualChecker().SettleResidualTol())
	s := m.Engine().OpenStream()
	defer s.Close()
	settled := 0
	var coldSteps, warmSteps int
	for i, obs := range obsList {
		res, err := s.Tick(obs, seed+uint64(i))
		if err != nil {
			return c, fmt.Errorf("dsgl: verify stream tick %d: %w", i, err)
		}
		if i == 0 {
			// Cold first tick: same seed, same init — bit-identity, not
			// tolerance.
			c.Violations = append(c.Violations,
				verify.ResultsEqual(verify.InvWarmStartFixedPoint, "tick 0 (cold)", seq[0], res)...)
			continue
		}
		if seq[i].Settled {
			settled++
			coldSteps += seq[i].Steps
			warmSteps += res.Steps
		}
		c.Violations = append(c.Violations,
			verify.WarmStartFixedPoint(fmt.Sprintf("tick %d", i), seq[i], res, tol)...)
	}
	if settled == 0 {
		c.Skipped = true
		c.Detail = fmt.Sprintf("none of the %d cold references settled; no fixed-point claim made", len(obsList))
		return c, nil
	}
	c.Detail = fmt.Sprintf("%d warm ticks against settled cold references (steps %d warm vs %d cold), node tolerance %.2g",
		settled, warmSteps, coldSteps, tol)
	return c, nil
}

// checkLosslessCompile verifies EffectiveJ == Tuned.J bit-for-bit whenever
// the compilation dropped no coupling.
func (m *Model) checkLosslessCompile() VerifyCheck {
	c := VerifyCheck{Invariant: verify.InvLosslessCompile, Name: "lossless compilation"}
	if m.Machine == nil {
		// The dense backend has no decomposition or placement stage, but its
		// network construction is still a realization step (dense J → CSR):
		// the invariant is that it drops only exact zeros and keeps every
		// surviving coupling bit-exact.
		c.Violations = verify.DenseEqual(verify.InvLosslessCompile,
			"EffectiveJ vs Tuned.J", m.Dspu.EffectiveJ(), m.Tuned.J)
		c.Detail = fmt.Sprintf("%d realized couplings compared (dense network realization)", m.Dspu.Net.J.NNZ())
		return c
	}
	if dropped := m.Machine.Stats().DroppedCouplings; dropped > 0 {
		c.Skipped = true
		c.Detail = fmt.Sprintf("%d couplings deliberately dropped (DS-GL-Spatial overflow); EffectiveJ == Tuned.J does not apply", dropped)
		return c
	}
	c.Violations = verify.LosslessCompilation(m.Machine, m.Tuned.J)
	c.Detail = fmt.Sprintf("%d realized couplings compared", m.Machine.Stats().IntraCouplings+m.Machine.Stats().InterCouplings)
	return c
}
