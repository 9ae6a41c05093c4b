// Package engine is the shared inference core of the DS-GL reproduction.
//
// DS-GL inference is one loop (paper Sec. III.C): clamp the observed nodes,
// anneal, read out the free ones. A Backend supplies the node dynamics
// (its coupling list, self-reaction and rails, and the anneal loop itself)
// and the Engine runs that loop through a single entry point,
// Run(state, Request{Obs, Seed, Path}), owning everything around the
// anneal:
//
//   - the InferState lifecycle (per-worker scratch arenas, reusable across
//     inferences, allocation-free in the steady state);
//   - observation validation — index range, finite values within the
//     rails, duplicate rejection — one validator shared by Run,
//     Stream.Tick and EnsurePlan;
//   - the clamp plans: the backend's mat.Couplings split against each
//     clamp pattern, cached by the packed observation-index bitmask in one
//     list of at most PlanCacheCapacity plans, most recently used first,
//     under one mutex; splitting happens OUTSIDE the lock with per-key
//     singleflight, so concurrent batch workers neither serialize on a
//     split nor duplicate one (hit/miss counters stay deterministic: a
//     pattern's first resolution is the one miss, every other resolution —
//     of a finished plan or one still compiling — is a hit);
//   - the anneal path a Request selects: Planned (the backend's loop under
//     a cached split, the default) or Naive (the same loop under the plan
//     that folds nothing, which the plan-naive-identity invariant compares
//     Planned against bit for bit);
//   - the seeding convention: a Request's Seed alone fixes its free-node
//     init and noise, so RunBatch is bit-identical to a sequential loop of
//     Run calls for any worker count, and InferBatch gives window i the
//     seed BaseSeed()+i;
//   - streaming sessions (stream.go): ticks warm-started from the previous
//     equilibrium, with plans resolved through the same cache;
//   - the reductions of the coupling list every caller outside the anneal
//     needs: Result.Energy and the lazy StepInfo.EnergyFn, the conditional
//     energy, the effective J, and the one full-coupling residual
//     (ResidualAt) that both backends' in-loop residuals must match.
//
// RunBatch fans a slice of Requests across a worker pool; InferWith,
// InferSeeded and InferBatch are thin conveniences over Run and RunBatch.
//
// The related-work lineage (BRIM's bistable CMOS nodes, oscillator-based
// Ising machines) runs the same clamp-anneal-readout loop over very
// different node dynamics; a new backend implements the Backend contract
// and inherits the whole engine layer — validation, plans, batching,
// verification hooks — without copying any of it.
//
// Bit-exactness discipline: the Engine never touches the floating-point
// path of an anneal. It seeds the state RNG, fills the initial voltages
// (uniform in [-0.1, 0.1)), writes the clamp values, resolves the plan,
// and hands off to the backend's Anneal. A split only reorganizes which
// floating-point operations are hoisted, never their order (see
// mat.Couplings.Split), which the golden-voltage regression fixture and
// the verify invariants enforce.
package engine

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"dsgl/internal/mat"
	"dsgl/internal/pool"
)

// PlanCacheCapacity bounds the per-engine plan cache. Eight patterns
// cover the realistic mix (one pattern per dataset windowing, a few for
// ad-hoc probes) while keeping the worst-case memory at eight split copies
// of the coupling list.
const PlanCacheCapacity = 8

// Backend is the contract a dynamical-system simulator implements to be
// driven by the engine: its couplings and node parameters, and the anneal
// loop. All methods except Anneal must be safe for concurrent use; Anneal
// is called with a per-worker InferState and may only mutate that state
// (plus backend-owned immutable data), which is what makes RunBatch
// race-free.
type Backend interface {
	// Name prefixes error messages ("scalable", "dspu") and names the
	// backend in CLIs and reports.
	Name() string
	// Rails is the voltage rail bound: observations with |value| beyond it
	// are rejected before the anneal starts, and at a rail only inward
	// current moves a node.
	Rails() float64
	// BaseSeed is the backend's configured seed; window i of a batch runs
	// with BaseSeed()+i.
	BaseSeed() uint64
	// Couplings is the coupling list whose sum is the J the backend
	// anneals; its dimension is the state dimension. The engine splits it
	// into clamp plans and reduces it to energies, the effective J and the
	// residual. It must not change after the engine is built.
	Couplings() *mat.Couplings
	// SelfReaction is h: node i's self-reaction current is h_i·σ_i.
	SelfReaction() []float64
	// AttachState allocates the backend's scratch arena into st.Scratch.
	// Called once per InferState, from NewInferState.
	AttachState(st *InferState)
	// Anneal runs one anneal on a prepared state (st.X holds initial
	// voltages with observations clamped, st.Clamped the clamp pattern,
	// st.RNG the seeded noise stream) under pl, the clamp plan of
	// st.Clamped: a cached split on the Planned path, the unfolded plan on
	// the Naive path. It must perform the same floating-point operations
	// under both. It writes st.Res (all but Energy, which the engine
	// fills) and returns &st.Res.
	Anneal(st *InferState, pl *mat.ClampSplit) (*Result, error)
	// SettleResidualTol is the residual bound a Settled result guarantees:
	// ResidualAt at a settled state is below it.
	SettleResidualTol() float64
}

// Engine drives inference for one Backend: validation, plan compilation
// and caching, seeding, and batch fan-out. Safe for concurrent use.
type Engine struct {
	b   Backend
	cpl *mat.Couplings
	h   []float64

	// plans is the clamp-plan cache: at most PlanCacheCapacity splits,
	// most recently used first, per-key singleflight compilation,
	// deterministic hit/miss counters (plancache.go).
	plans planCache[*mat.ClampSplit]

	// states recycles InferStates across RunBatch calls, stream sessions
	// and EnsurePlan checks, so repeated batch windows stop re-allocating
	// per-worker scratch arenas. Reuse is safe because every inference
	// fully re-seeds the state (voltages, clamp mask, RNG, backend
	// scratch).
	states freeList[*InferState]

	// obsBind caches the instrument binding against the current default
	// obs registry; see metrics.go. Nil until the first inference.
	obsBind atomic.Pointer[engineObs]
}

// New binds an engine to its backend.
func New(b Backend) *Engine {
	return &Engine{b: b, cpl: b.Couplings(), h: b.SelfReaction()}
}

// BaseSeed returns the backend's configured base seed (window i of a batch
// anneals with BaseSeed()+i).
func (e *Engine) BaseSeed() uint64 { return e.b.BaseSeed() }

// Path selects which anneal loop a Request runs.
type Path int

const (
	// Planned runs the backend's anneal under the observation pattern's
	// split, resolved through the plan cache. The default.
	Planned Path = iota
	// Naive runs the backend's anneal under the plan that folds nothing
	// (mat.Couplings.Unfold, built in the state): every coupling
	// re-evaluated in full each step, no plan cache. The
	// plan-naive-identity invariant asserts Planned and Naive return
	// bit-identical Results for every seed; benchmarks use it as the
	// pre-folding baseline.
	Naive
)

// Request is one inference: the observations to clamp, the seed of the
// free-node init and noise streams, and the anneal path.
type Request struct {
	Obs  []Observation
	Seed uint64
	Path Path
}

// Run executes one inference on a reusable scratch state. On the Planned
// and Naive paths, after the state's first use, the whole call —
// initialization, anneal loop, residual checks, result — performs zero
// heap allocations. The returned Result aliases the state's buffers (see
// InferState.Result).
func (e *Engine) Run(st *InferState, req Request) (*Result, error) {
	if err := e.checkState(st); err != nil {
		return nil, err
	}
	return e.run(st, req, false)
}

// RunBatch runs every request across a pool of workers (workers <= 0
// selects runtime.GOMAXPROCS(0)) and returns one detached Result per
// request, in order. Each worker owns a private InferState drawn from the
// engine's free-list (allocated on the first batch, recycled across
// batches), so the per-request steady state allocates nothing. Because a
// request's seed is the only per-request input the engine contributes, the
// output is bit-identical to calling Run on each request sequentially —
// regardless of worker count or scheduling. The first error in request
// order fails the batch.
func (e *Engine) RunBatch(reqs []Request, workers int) ([]*Result, error) {
	n := len(reqs)
	results := make([]*Result, n)
	w := pool.Clamp(workers, n)
	states := make([]*InferState, w)
	for i := range states {
		states[i] = e.getState()
	}
	if m := e.metrics(); m.enabled() {
		m.batches.Inc()
		m.batchWindows.Add(uint64(n))
		m.batchWorkers.Set(float64(w))
	}
	err := pool.RunWorkersErr(w, n, func(worker, i int) (err error) {
		results[i], err = detached(e.run(states[worker], reqs[i], false))
		return err
	})
	for _, st := range states {
		e.putState(st)
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

// InferWith is Run on the Planned path.
func (e *Engine) InferWith(st *InferState, obs []Observation, seed uint64) (*Result, error) {
	return e.Run(st, Request{Obs: obs, Seed: seed})
}

// InferSeeded is InferWith on a fresh state, returning a detached Result.
func (e *Engine) InferSeeded(obs []Observation, seed uint64) (*Result, error) {
	return detached(e.Run(e.NewInferState(), Request{Obs: obs, Seed: seed}))
}

// InferBatch is RunBatch on the Planned path with window i seeded
// BaseSeed()+i, bit-identical to InferSeeded(obs[i], BaseSeed()+i) in a
// sequential loop.
func (e *Engine) InferBatch(obs [][]Observation, workers int) ([]*Result, error) {
	base := e.b.BaseSeed()
	reqs := make([]Request, len(obs))
	for i, o := range obs {
		reqs[i] = Request{Obs: o, Seed: base + uint64(i)}
	}
	return e.RunBatch(reqs, workers)
}

// detached passes an error through or detaches the Result from its state.
func detached(res *Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return res.Detach(), nil
}

// run is the one inference sequence behind Run, RunBatch and Stream.Tick:
// seed the state, validate and clamp the observations, resolve the plan
// the request's path needs, run the backend, record. A warm run, a stream
// tick after the stream's cold first one, keeps the previous equilibrium
// as the free nodes' init instead of a fresh random fill.
func (e *Engine) run(st *InferState, req Request, warm bool) (*Result, error) {
	m := e.metrics()
	var start time.Time
	if m.enabled() {
		start = time.Now()
	}
	st.RNG.Reseed(req.Seed)
	if !warm {
		st.RNG.FillUniform(st.X, -0.1, 0.1)
	}
	st.WarmStart = warm
	b := e.b
	err := validateObservations(b.Name(), req.Obs, len(st.X), b.Rails(), st.X, st.Clamped)
	var res *Result
	if err == nil {
		res, err = e.anneal(st, req.Path, m)
	}
	m.recordInfer(res, err, start)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// anneal resolves the plan for the path on a prepared state, runs the
// backend's loop under it and fills the Result's energy. The Planned path
// resolves the state's clamp pattern through the plan cache (plancache.go),
// splitting it on a miss. Its result is bit-identical to Naive's — a split
// only reorganizes which floating-point operations are hoisted, never
// their order.
func (e *Engine) anneal(st *InferState, path Path, m *engineObs) (*Result, error) {
	var pl *mat.ClampSplit
	switch path {
	case Planned:
		pl = e.plans.resolve(packMask(st.Clamped, st.KeyBuf),
			func() *mat.ClampSplit { return e.cpl.Split(st.Clamped) }, m)
	case Naive:
		e.cpl.Unfold(st.Clamped, &st.unfolded)
		pl = &st.unfolded
	default:
		return nil, fmt.Errorf("%s: unknown inference path %d", e.b.Name(), path)
	}
	res, err := e.b.Anneal(st, pl)
	if err != nil {
		return nil, err
	}
	res.Energy = e.EnergyAt(res.Voltage)
	return res, nil
}

// getState draws a reusable InferState from the engine free-list,
// allocating a fresh one only when the pool is dry.
func (e *Engine) getState() *InferState {
	if st, ok := e.states.get(); ok {
		e.metrics().statePoolHits.Inc()
		return st
	}
	e.metrics().statePoolMisses.Inc()
	return e.NewInferState()
}

// putState returns a batch state to the free-list. Observers never
// survive pooling: a recycled state must behave exactly like a fresh one.
func (e *Engine) putState(st *InferState) {
	st.Observer = nil
	e.states.put(st)
}

// EnsurePlan validates the observation set (the same range / finiteness /
// rail / duplicate checks Run performs) and compiles (or re-warms) the
// clamp plan for its index pattern, so that a subsequent batch over
// windows sharing the pattern starts with a cache hit on every worker.
// Values are validated but never stored — plans depend on indices only.
// The check runs on a state drawn from the engine free-list, so concurrent
// callers share no lock but the plan cache's, and a warm pool allocates
// nothing.
func (e *Engine) EnsurePlan(obs []Observation) error {
	st := e.getState()
	defer e.putState(st)
	if err := validateObservations(e.b.Name(), obs, len(st.X), e.b.Rails(), nil, st.Clamped); err != nil {
		return err
	}
	e.plans.resolve(packMask(st.Clamped, st.KeyBuf),
		func() *mat.ClampSplit { return e.cpl.Split(st.Clamped) }, e.metrics())
	return nil
}

// PlanCacheStats reports the cumulative clamp-plan cache hit and miss
// counts. A miss compiles a plan; the steady state of a batch whose windows
// share one observation pattern is all hits.
func (e *Engine) PlanCacheStats() (hits, misses uint64) {
	return e.plans.stats()
}

// PlanCacheLen reports how many compiled plans are currently resident
// (bounded by PlanCacheCapacity).
func (e *Engine) PlanCacheLen() int {
	return e.plans.resident()
}

// checkState guards Run against nil or foreign states.
func (e *Engine) checkState(st *InferState) error {
	if st == nil || st.eng != e {
		return fmt.Errorf("%s: InferState belongs to a different engine", e.b.Name())
	}
	return nil
}

// EnergyAt evaluates the real-valued Hamiltonian of the backend's
// coupling list and self-reaction at state x (mat.Couplings.EnergyAt). It
// is what Result.Energy and the observers' lazy StepInfo.EnergyFn report.
func (e *Engine) EnergyAt(x []float64) float64 { return e.cpl.EnergyAt(x, e.h) }

// ClampedEnergyAt evaluates the conditional Hamiltonian of the free
// subsystem given the clamped nodes, the Lyapunov function of clamped
// annealing (see mat.Couplings.ClampedEnergyAt).
func (e *Engine) ClampedEnergyAt(x []float64, clamped []bool) float64 {
	return e.cpl.ClampedEnergyAt(x, clamped, e.h)
}

// EffectiveJ is the dense sum of the coupling list: the J the backend
// realizes, which the lossless-compilation and snapshot round-trip
// invariants compare.
func (e *Engine) EffectiveJ() *mat.Dense { return e.cpl.EffectiveJ() }

// SettleResidualTol is the residual bound a Settled result guarantees.
func (e *Engine) SettleResidualTol() float64 { return e.b.SettleResidualTol() }

// ResidualAt evaluates the true equilibrium residual max |dσ/dt| at state
// x with every coupling live and fresh, skipping nodes marked in clamped
// (nil = no node clamped): each free node's current is the first matrix's
// row sum plus every further matrix's row sum, added in list order, plus
// h_i·x_i, and at a rail only inward current counts. It shares no code with
// any anneal loop, so it is the independent reference the settle-residual
// invariant checks Settled results against, and both backends' in-loop
// residual checks compute this quantity bit for bit.
func (e *Engine) ResidualAt(x []float64, clamped []bool) (float64, error) {
	n := e.cpl.Dim()
	if len(x) != n {
		return 0, fmt.Errorf("%s: state has %d entries, want %d", e.b.Name(), len(x), n)
	}
	if clamped == nil {
		clamped = make([]bool, n)
	} else if len(clamped) != n {
		return 0, fmt.Errorf("%s: clamp mask has %d entries, want %d", e.b.Name(), len(clamped), n)
	}
	buf := e.cpl.Mats[0].MulVec(x, nil)
	for _, s := range e.cpl.Mats[1:] {
		for i := 0; i < s.Rows; i++ {
			var sum float64
			for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
				sum += s.Val[p] * x[s.ColIdx[p]]
			}
			buf[i] += sum
		}
	}
	rail := e.b.Rails()
	maxD := 0.0
	for i, c := range clamped {
		if c {
			continue
		}
		d := buf[i] + e.h[i]*x[i]
		if x[i] >= rail && d > 0 {
			d = 0
		} else if x[i] <= -rail && d < 0 {
			d = 0
		}
		if a := math.Abs(d); a > maxD {
			maxD = a
		}
	}
	return maxD, nil
}

// maskBytes is the packed-bitmask length for n nodes.
func maskBytes(n int) int { return (n + 7) / 8 }

// packMask packs the clamp mask into buf as a little-endian bitmask — the
// plan-cache key. buf must have exactly maskBytes(len(clamped)) bytes.
func packMask(clamped []bool, buf []byte) []byte {
	for i := range buf {
		buf[i] = 0
	}
	for i, c := range clamped {
		if c {
			buf[i>>3] |= 1 << (i & 7)
		}
	}
	return buf
}
