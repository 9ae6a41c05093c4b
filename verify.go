package dsgl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"

	"dsgl/internal/datasets"
	"dsgl/internal/engine"
	"dsgl/internal/ising"
	"dsgl/internal/opt"
	"dsgl/internal/scalable"
)

// The invariants Verify checks (paper Sec. III, Eqs. 6-8), as the
// `dsgl verify` CLI subcommand and `make verify` run them — this list is
// their one statement. The numbers are stable: 7 is retired and stays
// unused, so references to the others remain valid.
//
//  1. energy-descent — the Lyapunov-designed dynamics anneal with
//     monotone (ripple-bounded) energy descent;
//  2. settle-residual — whenever an inference reports Settled, the true
//     equilibrium residual max |dσ/dt| is below the machine's settle bound
//     (the fixed point σ_i = -Σ J_ij σ_j / h_i holds);
//  3. snapshot-round-trip — a model survives Save/Load bit-identically:
//     same compilation stats, same effective coupling matrix, same
//     inference results on a probe window;
//  4. seq-par-identity — Evaluate and EvaluateParallel (and a parallel
//     RunBatch vs sequential runs) are bit-identical for any worker count;
//  5. lossless-compile — when no coupling is dropped, the compiled
//     machine realizes exactly the tuned J (EffectiveJ == Tuned.J);
//  6. plan-naive-identity — the clamp-plan compiled inference path
//     (constant clamp currents folded, free-row kernels) returns Results
//     bit-identical to the Naive path: the same anneal loop under the
//     unfolded plan, which folds nothing and re-evaluates every coupling
//     each step. Both paths share the loop, so this isolates the one step
//     with IEEE-754 risk, hoisting the fully clamped rows into a bias;
//  7. (retired) sharded-fixed-point — checked the community-sharded
//     anneal, which was removed; every inference now runs one anneal path;
//  8. warm-start-fixed-point — a warm-started streaming tick (free nodes
//     initialized from the previous tick's equilibrium instead of a fresh
//     random draw; see engine.Stream) settles to the same fixed point as a
//     cold inference of the same window. This is a tolerance contract:
//     the clamped dynamics have a unique attracting equilibrium, so the
//     init only moves where the trajectory starts, never where it ends —
//     but the two trajectories differ, so the settled states agree only
//     within the settle-residual bracket, not bit-for-bit;
//  9. opt-best-energy-monotone — a multi-restart combinatorial solve
//     (engine.OptEngine over an ising.Solver) reports an internally
//     consistent run: the best-energy-so-far trace is the exact running
//     minimum of the per-restart energies (hence non-increasing), the
//     reported best matches both the trace floor and its restart's energy,
//     and recomputing the Hamiltonian at the reported best spins
//     reproduces the reported energy bit-for-bit. Checked at two worker
//     counts, whose runs must also be bit-identical (the optimization
//     face of invariant 4's determinism contract);
//  10. decomposed-k1-identity — heterogeneous decomposition with a single
//     interaction class (Options.Decompose, Classes=1) reproduces the
//     monolithic fit bit-for-bit: same tuned J and h, and bit-identical
//     probe inference. Both fits run the same ridge solves
//     (train.Moments.Ridge and MaskedRidge, where a nil class vector is
//     one class), so the check guards the class plumbing around them:
//     hetero.Assign and community.RefineByClass at K=1, and the class
//     labels a snapshot carries. Everything downstream is deterministic,
//     so any divergence is a real defect, never numerical slack.
const (
	invEnergyDescent         = "energy-descent"
	invSettleResidual        = "settle-residual"
	invSnapshotRoundTrip     = "snapshot-round-trip"
	invSeqParIdentity        = "seq-par-identity"
	invLosslessCompile       = "lossless-compile"
	invPlanNaiveIdentity     = "plan-naive-identity"
	invWarmStartFixedPoint   = "warm-start-fixed-point"
	invOptBestEnergyMonotone = "opt-best-energy-monotone"
	invDecomposedK1Identity  = "decomposed-k1-identity"
)

// maxViolationsPerCheck caps the violations one check lists; Verify
// summarizes the rest in one trailing line, so a badly broken run stays
// readable.
const maxViolationsPerCheck = 8

// VerifyViolation describes one contract divergence.
type VerifyViolation struct {
	// Invariant is the stable identifier of the violated contract.
	Invariant string
	// Detail is a human-readable description of the divergence.
	Detail string
}

// VerifyCheck is the outcome of verifying one invariant.
type VerifyCheck struct {
	// Invariant is the stable identifier (e.g. "energy-descent").
	Invariant string
	// Name is the human-readable title shown by the CLI.
	Name string
	// Skipped marks a check whose precondition did not apply (e.g. no
	// settled probe window to verify the residual on). A skipped check has
	// no violations and does not fail the report, but is reported as such.
	Skipped bool
	// Detail summarizes what was checked (probe count, tolerances) or why
	// the check was skipped.
	Detail string
	// Violations lists the divergences found, at most eight of them and
	// then one line counting the rest; empty means the invariant held.
	Violations []VerifyViolation
	// more counts the violations past the cap.
	more int
}

// violate records one divergence of c's invariant.
func (c *VerifyCheck) violate(format string, args ...any) {
	if len(c.Violations) >= maxViolationsPerCheck {
		c.more++
		return
	}
	c.Violations = append(c.Violations, VerifyViolation{Invariant: c.Invariant, Detail: fmt.Sprintf(format, args...)})
}

// Passed reports whether the check ran and found no violation.
func (c *VerifyCheck) Passed() bool { return !c.Skipped && len(c.Violations) == 0 }

// VerifyReport is the structured outcome of Verify: one VerifyCheck per
// invariant, in contract order.
type VerifyReport struct {
	// Target names what was verified (the dataset).
	Target string
	// Checks holds one entry per invariant, in contract order.
	Checks []VerifyCheck
}

// Ok reports whether no check found a violation.
func (r *VerifyReport) Ok() bool {
	for i := range r.Checks {
		if len(r.Checks[i].Violations) > 0 {
			return false
		}
	}
	return true
}

// Violations flattens every check's violations.
func (r *VerifyReport) Violations() []VerifyViolation {
	var out []VerifyViolation
	for i := range r.Checks {
		out = append(out, r.Checks[i].Violations...)
	}
	return out
}

// Fprint renders the report for terminals: one status line per invariant,
// then any violations indented beneath it.
func (r *VerifyReport) Fprint(w io.Writer) {
	for i := range r.Checks {
		c := &r.Checks[i]
		status := "PASS"
		switch {
		case c.Skipped:
			status = "SKIP"
		case len(c.Violations) > 0:
			status = "FAIL"
		}
		fmt.Fprintf(w, "  %-4s %-20s %s", status, c.Invariant, c.Name)
		if c.Detail != "" {
			fmt.Fprintf(w, " — %s", c.Detail)
		}
		fmt.Fprintln(w)
		for _, v := range c.Violations {
			fmt.Fprintf(w, "       ! %s\n", v.Detail)
		}
	}
}

// VerifyOptions tunes an invariant-verification run.
type VerifyOptions struct {
	// Windows caps the probe windows drawn from the head of the test split
	// (default 8). Every probe feeds the settle-residual and the
	// sequential/parallel checks; the first two feed the per-step energy
	// trace.
	Windows int
	// Workers sizes the pool of the parallel half of the seq/par identity
	// check. 0 selects the model's Options.Workers.
	Workers int
}

// energyProbes is how many probe windows record full per-step energy
// traces for the descent check (tracing evaluates the Hamiltonian every
// integration step, so it is the expensive part).
const energyProbes = 2

// Energy-descent ripple tolerances (relative to the trace's dynamic range).
// A single-slice machine is an exact gradient flow of the compiled
// Hamiltonian, so only forward-Euler discretization slack is allowed; a
// time-multiplexed machine anneals under sample-and-hold currents, whose
// slice switches put bounded ripple on the true energy. descentSlack is
// the absolute rise every trace point may add on top, and the most a
// whole trace may end above where it began.
const (
	descentRippleSingle = 1e-6
	descentRippleMulti  = 0.05
	descentSlack        = 1e-12
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

// newProbes draws up to opts.Windows probe windows from the head of m's
// test split and runs the sequential reference inference on them.
func newProbes(m *Model, opts VerifyOptions) (*probes, error) {
	if opts.Windows <= 0 {
		opts.Windows = 8
	}
	_, test := m.Dataset.Split()
	if len(test) == 0 {
		return nil, errors.New("dsgl: no test windows to probe")
	}
	p := &probes{windows: test[:min(len(test), opts.Windows)], seed: m.Engine().BaseSeed(), opts: opts}
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
	return p, nil
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
		sameResult(c, fmt.Sprintf("probe %d", i), ref[i], got[i])
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

// invariantChecks lists the nine contracts in report order; the doc
// comment of the inv* constants states each one.
var invariantChecks = []invariantCheck{
	{invEnergyDescent, "monotone energy descent",
		"analog noise injected; per-step descent not guaranteed", (*Model).checkEnergyDescent},
	{invSettleResidual, "equilibrium residual at settle", "", (*Model).checkSettleResidual},
	{invSnapshotRoundTrip, "Save/Load machine equivalence", "", (*Model).checkSnapshotRoundTrip},
	{invSeqParIdentity, "sequential/parallel bit-identity", "", (*Model).checkSeqParIdentity},
	{invLosslessCompile, "lossless compilation", "", (*Model).checkLosslessCompile},
	{invPlanNaiveIdentity, "clamp-plan/naive bit-identity", "", (*Model).checkPlanNaiveIdentity},
	{invWarmStartFixedPoint, "warm-start/cold fixed-point agreement",
		"analog noise injected; warm and cold anneals draw diverging noise streams", (*Model).checkWarmStartFixedPoint},
	{invOptBestEnergyMonotone, "optimization best-energy consistency", "", (*Model).checkOptBestEnergyMonotone},
	{invDecomposedK1Identity, "decomposed K=1 / monolithic bit-identity", "", (*Model).checkDecomposedK1Identity},
}

// Verify checks the nine runtime contracts of the DS-GL system (paper
// Sec. III, Eqs. 6-8) against the trained model, on probe windows from
// the head of its test split. The invariants are stated in the doc
// comment of the inv* constants; invariantChecks runs them in that order.
//
// The returned report is structured: rep.Ok() is the overall verdict,
// rep.Fprint renders it for terminals, and rep.Violations() flattens every
// divergence. Verify returns a non-nil error only when it cannot run the
// checks at all (no test windows, snapshot I/O failure); contract
// violations are reported, not returned as errors.
//
// Verify runs against either backend. On a BackendDense model the
// snapshot round trip exercises the dense snapshot format, and lossless
// compilation compares the network's realized coupling matrix against the
// tuned J.
func Verify(m *Model, opts VerifyOptions) (*VerifyReport, error) {
	if m == nil || m.Dataset == nil || (m.Machine == nil && m.Dspu == nil) {
		return nil, errors.New("dsgl: Verify needs a trained model")
	}
	p, err := newProbes(m, opts)
	if err != nil {
		return nil, err
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
		if c.more > 0 {
			c.Violations = append(c.Violations, VerifyViolation{c.Invariant, fmt.Sprintf("... and %d more violations", c.more)})
		}
		rep.Checks = append(rep.Checks, c)
	}
	return rep, nil
}

// Verify is the method form of the package-level Verify.
func (m *Model) Verify(opts VerifyOptions) (*VerifyReport, error) { return Verify(m, opts) }

// clampMask is the model's clamp pattern as a fresh mask.
func (m *Model) clampMask() []bool { return append([]bool(nil), m.observed...) }

// checkEnergyDescent verifies invariant 1: per-step energy traces of the
// first energyProbes probes descend, up to ripple.
func (m *Model) checkEnergyDescent(p *probes, c *VerifyCheck) error {
	ripple, stride := descentRippleSingle, 1
	// A dense-backend model is a single continuous gradient flow — no slice
	// switching — so it always verifies with the strict per-step tolerance.
	if m.Machine != nil && m.Machine.Stats().Rounds > 1 {
		ripple = descentRippleMulti
		// Sample once per slice switch: within a slice the held currents
		// make the measured energy ripple by design, so the descent claim
		// is made on the switch-to-switch envelope.
		stride = max(int(m.Machine.Config().SyncIntervalNs/scalable.Dt), 1)
	}
	// The descending quantity is the conditional Hamiltonian given the
	// clamps (see mat.Couplings.ClampedEnergyAt): the raw Hamiltonian that
	// StepInfo.EnergyFn evaluates weights clamp couplings by 1/2 and is not
	// a Lyapunov function of the clamped dynamics.
	clamped := m.clampMask()
	eng := m.Engine()
	st := eng.NewInferState()
	var trace []float64
	st.SetObserver(func(si engine.StepInfo) {
		if si.Step%stride == 0 {
			trace = append(trace, eng.ClampedEnergyAt(si.X, clamped))
		}
	})
	reqs := p.requests(engine.Planned)[:min(energyProbes, len(p.obs))]
	steps := 0
	for i, req := range reqs {
		trace = trace[:0]
		if _, err := eng.Run(st, req); err != nil {
			c.violate("probe %d: %v", i, err)
			continue
		}
		steps += len(trace)
		monotoneDescent(c, fmt.Sprintf("probe %d", i), trace, ripple)
	}
	c.Detail = fmt.Sprintf("%d probe anneals, %d energy samples, ripple tol %.2g·range",
		len(reqs), steps, ripple)
	return nil
}

// monotoneDescent records a violation of c, named by label, for each point
// of the energy trace that rises over the one before by more than
// descentSlack plus ripple times the trace's range, and one if the trace
// ends more than descentSlack above where it began. The trace is whatever
// the caller sampled: per integration step, or one point per slice cycle.
func monotoneDescent(c *VerifyCheck, label string, energies []float64, ripple float64) {
	if len(energies) < 2 {
		return
	}
	lo, hi := energies[0], energies[0]
	for _, e := range energies[1:] {
		if e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	allow := descentSlack + ripple*(hi-lo)
	for k := 1; k < len(energies); k++ {
		rise := energies[k] - energies[k-1]
		if rise <= allow {
			continue
		}
		c.violate("%s: energy rose %.3g (allowed %.3g) at trace point %d: %.6g -> %.6g",
			label, rise, allow, k, energies[k-1], energies[k])
	}
	if net := energies[len(energies)-1] - energies[0]; net > descentSlack {
		c.violate("%s: net energy ascent over the anneal: %.6g -> %.6g (drift %.3g, allowed %.3g)",
			label, energies[0], energies[len(energies)-1], net, descentSlack)
	}
}

// checkSettleResidual verifies invariant 2: every probe reporting Settled
// sits within the backend's full-residual settle bound, measured by the
// engine's ResidualAt. A probe that did not settle makes no equilibrium
// claim.
func (m *Model) checkSettleResidual(p *probes, c *VerifyCheck) error {
	clamped := m.clampMask()
	eng := m.Engine()
	tol := eng.SettleResidualTol()
	settled := 0
	for i, res := range p.seq {
		if !res.Settled {
			continue
		}
		settled++
		r, err := eng.ResidualAt(res.Voltage, clamped)
		if err != nil {
			c.violate("probe %d: %v", i, err)
		} else if r >= tol {
			c.violate("probe %d: Settled reported but equilibrium residual %.3g >= bound %.3g", i, r, tol)
		}
	}
	if settled == 0 {
		c.Skipped = true
		c.Detail = fmt.Sprintf("none of the %d probes settled within MaxInferNs; no equilibrium claim made", len(p.seq))
		return nil
	}
	c.Detail = fmt.Sprintf("%d/%d probes settled, residual bound %.2g", settled, len(p.seq), tol)
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
		c.violate("Load failed on a fresh snapshot: %v", err)
		return nil
	}
	if m.Machine != nil {
		if sa, sb := m.Machine.Stats(), loaded.Machine.Stats(); sa != sb {
			c.violate("compilation stats diverge: %+v vs %+v", sa, sb)
		}
	}
	effJ := m.Engine().EffectiveJ()
	sameFloats(c, "EffectiveJ", effJ.Data, loaded.Engine().EffectiveJ().Data, effJ.Cols)
	if m.mask != nil {
		if loaded.mask == nil || loaded.mask.Rows != m.mask.Rows || loaded.mask.Cols != m.mask.Cols {
			c.violate("coupling mask shape lost across Save/Load")
		} else {
			diff := 0
			for i := range m.mask.Data {
				if m.mask.Data[i] != loaded.mask.Data[i] {
					diff++
				}
			}
			if diff > 0 {
				c.violate("coupling mask diverges in %d entries across Save/Load", diff)
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
		sameResult(c, fmt.Sprintf("window %d", i), p.seq[i], par[i])
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
		c.violate("Evaluate vs EvaluateParallel diverge: RMSE %v/%v, MAE %v/%v, latency %v/%v",
			seqRep.RMSE, parRep.RMSE, seqRep.MAE, parRep.MAE, seqRep.MeanLatencyUs, parRep.MeanLatencyUs)
	}
	c.Detail = fmt.Sprintf("%d windows, %d workers", len(p.windows), workers)
	return nil
}

// checkLosslessCompile verifies invariant 5: EffectiveJ == Tuned.J
// whenever the compilation dropped no coupling. The dense backend has no
// decomposition, but its network construction is still a realization step
// (dense J → CSR) that must drop only exact zeros. The comparison is by
// value: a -0 coupling and an absent one are the same circuit, and both
// backends drop both when they compile J.
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
	effJ := m.Engine().EffectiveJ()
	sameFloats(c, "EffectiveJ vs Tuned.J", effJ.Data, m.Tuned.J.Data, effJ.Cols)
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

// fixedPointTol converts the settle-residual bound into a node-wise
// voltage tolerance: at a settled state every free node's residual
// |Σ J_ij x_j + h_i x_i| is below the bound, so to first order two settled
// states differ per node by at most 2·bound/|h_i|. The extra factor of two
// covers the free-free coupling feedback the per-node linearization drops
// (trained DS-GL systems keep that block weak — the closed-form solve
// couples unknowns to observations, not to each other).
func fixedPointTol(h []float64, residBound float64) float64 {
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

// checkWarmStartFixedPoint verifies invariant 8 by streaming the probe
// windows as consecutive warm-started ticks (see engine.Stream). The first
// tick of a stream IS a cold inference and must match the reference bit
// for bit; the warm ticks carry a different trajectory to the same
// attractor and are compared within fixedPointTol.
func (m *Model) checkWarmStartFixedPoint(p *probes, c *VerifyCheck) error {
	if len(p.obs) < 2 {
		c.Skipped = true
		c.Detail = "need at least two probe windows to take a warm-started tick"
		return nil
	}
	tol := fixedPointTol(m.Tuned.H, m.Engine().SettleResidualTol())
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
			sameResult(c, "tick 0 (cold)", p.seq[0], res)
			continue
		}
		if p.seq[i].Settled {
			settled++
			coldSteps += p.seq[i].Steps
			warmSteps += res.Steps
		}
		fixedPoint(c, fmt.Sprintf("tick %d", i), p.seq[i], res, tol)
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

// fixedPoint checks the tolerance invariant 8 on one probe: a settled
// reference anneal and the anneal compared with it (warm-started) must
// reach the same fixed point, node-wise within tol. The caller derives tol
// from the settle-residual bound and the field strengths: both states
// carry residual < bound, so they bracket the unique clamped equilibrium.
// A reference that did not settle makes no fixed-point claim and passes
// vacuously; a settle the compared anneal fails to reproduce is itself a
// violation — a nearer start may change the path, never prevent
// convergence within the same time budget.
func fixedPoint(c *VerifyCheck, label string, ref, got *engine.Result, tol float64) {
	if !ref.Settled {
		return
	}
	if !got.Settled {
		c.violate("%s: reference anneal settled but the compared anneal did not (residual %.3g after %d steps)",
			label, got.Residual, got.Steps)
		return
	}
	if len(ref.Voltage) != len(got.Voltage) {
		c.violate("%s: voltage length diverges: %d vs %d", label, len(ref.Voltage), len(got.Voltage))
		return
	}
	for i := range ref.Voltage {
		d := math.Abs(ref.Voltage[i] - got.Voltage[i])
		if d <= tol || (math.IsNaN(ref.Voltage[i]) && math.IsNaN(got.Voltage[i])) {
			continue
		}
		c.violate("%s: node %d: reference %v vs compared %v (|Δ|=%.3g > tol %.3g)",
			label, i, ref.Voltage[i], got.Voltage[i], d, tol)
	}
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
	optBestEnergy(c, "workers=1", seqRun, solver.EnergyOf)
	optBestEnergy(c, fmt.Sprintf("workers=%d", optVerifyWorkers), parRun, solver.EnergyOf)
	optRunsIdentical(c, fmt.Sprintf("workers 1 vs %d", optVerifyWorkers), seqRun, parRun)
	c.Detail = fmt.Sprintf("%s via %s: %d restarts at 1 and %d workers, best energy %.6g (cut %g)",
		g.Name, solver.Name(), optVerifyRestarts, optVerifyWorkers,
		seqRun.Best.Energy, g.CutFromEnergy(seqRun.Best.Energy))
	return nil
}

// optBestEnergy checks invariant 9 on one multi-restart solve, named by
// label: BestTrace must be the exact running minimum of Energies
// (non-increasing by construction), the reported Best must agree with both
// the trace floor and its restart's recorded energy, and energyOf — the
// backend's Hamiltonian — must reproduce Best.Energy from Best.Spins
// bit-for-bit.
func optBestEnergy(c *VerifyCheck, label string, run *engine.OptRun, energyOf func([]int8) float64) {
	if run == nil || run.Best == nil {
		c.violate("%s: run has no best result", label)
		return
	}
	if len(run.Energies) != run.Restarts || len(run.BestTrace) != run.Restarts {
		c.violate("%s: trace lengths %d/%d do not match %d restarts",
			label, len(run.Energies), len(run.BestTrace), run.Restarts)
		return
	}
	best := math.Inf(1)
	bestIdx := -1
	for i, e := range run.Energies {
		if e < best {
			best = e
			bestIdx = i
		}
		if run.BestTrace[i] != best || (i > 0 && run.BestTrace[i] > run.BestTrace[i-1]) {
			c.violate("%s: BestTrace[%d] = %.17g, want running min %.17g", label, i, run.BestTrace[i], best)
		}
	}
	if bestIdx >= 0 && run.BestRestart != bestIdx {
		c.violate("%s: BestRestart = %d, want earliest minimum %d", label, run.BestRestart, bestIdx)
	}
	if run.Best.Energy != best {
		c.violate("%s: Best.Energy = %.17g, want trace floor %.17g", label, run.Best.Energy, best)
	}
	if run.BestRestart >= 0 && run.BestRestart < len(run.Energies) &&
		run.Energies[run.BestRestart] != run.Best.Energy {
		c.violate("%s: Energies[%d] = %.17g != Best.Energy %.17g",
			label, run.BestRestart, run.Energies[run.BestRestart], run.Best.Energy)
	}
	if got := energyOf(run.Best.Spins); got != run.Best.Energy {
		c.violate("%s: recomputed Hamiltonian %.17g != reported Best.Energy %.17g", label, got, run.Best.Energy)
	}
}

// optRunsIdentical checks that two multi-restart solves of the same
// problem, at different worker counts, are bit-identical: same per-restart
// energies, same best restart, same best spins (the first divergent spin
// is reported).
func optRunsIdentical(c *VerifyCheck, label string, a, b *engine.OptRun) {
	if a == nil || b == nil || a.Best == nil || b.Best == nil {
		c.violate("%s: run missing a best result", label)
		return
	}
	if a.Restarts != b.Restarts {
		c.violate("%s: restart counts differ: %d vs %d", label, a.Restarts, b.Restarts)
		return
	}
	for i := range a.Energies {
		if a.Energies[i] != b.Energies[i] {
			c.violate("%s: Energies[%d] differ: %.17g vs %.17g", label, i, a.Energies[i], b.Energies[i])
		}
	}
	if a.BestRestart != b.BestRestart {
		c.violate("%s: BestRestart differs: %d vs %d", label, a.BestRestart, b.BestRestart)
	}
	for i := range a.Best.Spins {
		if i < len(b.Best.Spins) && a.Best.Spins[i] != b.Best.Spins[i] {
			c.violate("%s: Best.Spins[%d] differ: %d vs %d", label, i, a.Best.Spins[i], b.Best.Spins[i])
			break
		}
	}
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
	sameFloats(c, "Tuned.J", ref.Tuned.J.Data, twin.Tuned.J.Data, ref.Tuned.J.Cols)
	sameFloats(c, "Tuned.H", ref.Tuned.H, twin.Tuned.H, 0)
	return p.reinfer(c, twin.Engine(), engine.Planned, refResults)
}

// sameFloats records a violation of c for each entry where a and b differ
// in value (NaN matches NaN), named what[i], or what[row,col] when width,
// a row width, is positive.
func sameFloats(c *VerifyCheck, what string, a, b []float64, width int) {
	if len(a) != len(b) {
		c.violate("%s length diverges: %d vs %d", what, len(a), len(b))
		return
	}
	for i := range a {
		if a[i] == b[i] || (math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			continue
		}
		if width > 0 {
			c.violate("%s[%d,%d] diverges: %v vs %v", what, i/width, i%width, a[i], b[i])
		} else {
			c.violate("%s[%d] diverges: %v vs %v", what, i, a[i], b[i])
		}
	}
}

// sameResult records a violation of c, named by label, for each way two
// inference results from any engine backend are not bit-identical:
// voltages, latency accounting, settle flag, switch and step counts, final
// energy, and settle residual. Floats compare by their bits, so -0 and +0
// diverge.
func sameResult(c *VerifyCheck, label string, a, b *engine.Result) {
	if len(a.Voltage) != len(b.Voltage) {
		c.violate("%s: voltage length diverges: %d vs %d", label, len(a.Voltage), len(b.Voltage))
		return
	}
	diverged, first := 0, -1
	for i := range a.Voltage {
		if !sameBits(a.Voltage[i], b.Voltage[i]) {
			if first < 0 {
				first = i
			}
			diverged++
		}
	}
	if diverged > 0 {
		c.violate("%s: %d voltages diverge (first at node %d: %v vs %v)",
			label, diverged, first, a.Voltage[first], b.Voltage[first])
	}
	if !sameBits(a.LatencyNs, b.LatencyNs) {
		c.violate("%s: latency diverges: %v vs %v ns", label, a.LatencyNs, b.LatencyNs)
	}
	if !sameBits(a.AnnealNs, b.AnnealNs) {
		c.violate("%s: anneal time diverges: %v vs %v ns", label, a.AnnealNs, b.AnnealNs)
	}
	if a.Settled != b.Settled {
		c.violate("%s: settle flag diverges: %v vs %v", label, a.Settled, b.Settled)
	}
	if a.Switches != b.Switches {
		c.violate("%s: switch count diverges: %d vs %d", label, a.Switches, b.Switches)
	}
	if a.Steps != b.Steps {
		c.violate("%s: step count diverges: %d vs %d", label, a.Steps, b.Steps)
	}
	if !sameBits(a.Energy, b.Energy) {
		c.violate("%s: final energy diverges: %v vs %v", label, a.Energy, b.Energy)
	}
	if !sameBits(a.Residual, b.Residual) {
		c.violate("%s: settle residual diverges: %v vs %v", label, a.Residual, b.Residual)
	}
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
