// Package engine is the shared inference core of the DS-GL reproduction.
//
// DS-GL inference is one loop (paper Sec. III.C): clamp the observed nodes,
// anneal, read out the free ones. A Backend supplies the node dynamics
// (dimension, rails, clamp-plan compilation, the anneal loops themselves,
// energy/residual hooks) and the Engine runs that loop through a single
// entry point, Run(state, Request{Obs, Seed, Path}), owning everything
// around the anneal:
//
//   - the InferState lifecycle (per-worker scratch arenas, reusable across
//     inferences, allocation-free in the steady state);
//   - observation validation — index range, finite values within the
//     rails, duplicate rejection — one validator shared by Run,
//     Stream.Tick and EnsurePlan;
//   - the clamp-plan cache: compiled plans keyed by the packed
//     observation-index bitmask, bounded LRU (internal/lru) behind a
//     lock-free read snapshot; compilation happens OUTSIDE the cache lock
//     with per-key singleflight, so concurrent batch workers neither
//     serialize on a compile nor duplicate one (hit/miss counters stay
//     deterministic: a pattern's first resolution is the one miss, every
//     other resolution — snapshot hit, LRU hit, or singleflight wait — is
//     a hit);
//   - the anneal path a Request selects: Planned (the clamp-plan loop, the
//     default), Naive (the backend's reference loop, which the
//     plan-naive-identity invariant compares Planned against bit for bit),
//     or Sharded (the partitioned anneal of a ShardedBackend, falling back
//     to Planned when the backend or the clamp pattern cannot shard);
//   - the seeding convention: a Request's Seed alone fixes its free-node
//     init and noise, so RunBatch is bit-identical to a sequential loop of
//     Run calls for any worker count, and InferBatch gives window i the
//     seed BaseSeed()+i;
//   - streaming sessions (stream.go): ticks warm-started from the previous
//     equilibrium, with plans delta-compiled from the previous pattern;
//   - observer dispatch types (StepInfo with a lazy EnergyFn) and Result
//     detachment.
//
// RunBatch fans a slice of Requests across a worker pool; InferWith,
// InferSeeded and InferBatch are thin conveniences over Run and RunBatch.
//
// The related-work lineage (BRIM's bistable CMOS nodes, oscillator-based
// Ising machines) runs the same clamp-anneal-readout loop over very
// different node dynamics; a new backend implements the Backend contract
// and inherits the whole engine layer — validation, caching, batching,
// verification hooks — without copying any of it.
//
// Bit-exactness discipline: the Engine never touches the floating-point
// path of an anneal. It seeds the state RNG, fills the initial voltages
// (uniform in [-0.1, 0.1)), writes the clamp values, and hands off to the
// backend's RunPlanned/RunNaive. A backend extracted onto this engine
// therefore produces bit-identical results to its pre-extraction form —
// enforced by the golden-voltage regression fixture and the ten verify
// invariants. The Sharded path is the one deliberate exception: it is
// deterministic per seed but only tolerance-equivalent to the exact path,
// a contract the sharded-fixed-point invariant verifies.
package engine

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dsgl/internal/pool"
)

// PlanCacheCapacity bounds the per-engine clamp-plan LRU cache. Eight
// patterns cover the realistic mix (one pattern per dataset windowing, a
// few for ad-hoc probes) while keeping the worst-case memory at eight
// sparsified copies of the coupling matrices.
const PlanCacheCapacity = 8

// Backend is the contract a dynamical-system simulator implements to be
// driven by the engine. All methods except RunPlanned and RunNaive must be
// safe for concurrent use; the Run* methods are called with a per-worker
// InferState and may only mutate that state (plus backend-owned immutable
// data), which is what makes RunBatch race-free.
type Backend interface {
	// Name prefixes error messages ("scalable", "dspu") and names the
	// backend in CLIs and reports.
	Name() string
	// Dim is the state dimension (node count).
	Dim() int
	// Rails is the voltage rail bound: observations with |value| beyond it
	// are rejected before the anneal starts.
	Rails() float64
	// BaseSeed is the backend's configured seed; window i of a batch runs
	// with BaseSeed()+i.
	BaseSeed() uint64
	// CompilePlan compiles the clamp-index pattern into a backend-specific
	// inference plan. Plans depend only on WHICH nodes are clamped, never
	// on the clamp values, must be immutable after compilation, and are
	// shared freely across workers. The engine caches them by packed mask.
	CompilePlan(clamped []bool) any
	// AttachState allocates the backend's scratch arena into st.Scratch
	// (and may rebind st.EnergyFn). Called once per InferState, from
	// NewInferState.
	AttachState(st *InferState)
	// RunPlanned runs one anneal on a prepared state (st.X holds initial
	// voltages with observations clamped, st.Clamped/ClampIdx the clamp
	// pattern, st.RNG the seeded noise stream) under a plan previously
	// returned by CompilePlan. It writes st.Res and returns &st.Res.
	RunPlanned(st *InferState, plan any) (*Result, error)
	// RunNaive is the naive reference anneal: no clamp plan, every coupling
	// re-evaluated in full. It is the ground truth the plan-naive-identity
	// invariant verifies RunPlanned against.
	RunNaive(st *InferState) (*Result, error)
	// EnergyAt evaluates the backend's Hamiltonian at state x; the engine
	// binds it into the lazy StepInfo.EnergyFn handed to observers.
	EnergyAt(x []float64) float64
	// ResidualAt evaluates the true (noise-free, all-couplings-fresh)
	// equilibrium residual max |dσ/dt| at x, skipping clamped nodes.
	ResidualAt(x []float64, clamped []bool) (float64, error)
	// SettleResidualTol is the residual bound a Settled result guarantees.
	SettleResidualTol() float64
}

// ShardedBackend is the optional Backend extension for the intra-inference
// sharded anneal: the backend partitions its graph (by Louvain
// super-community groups in the scalable machine) and anneals every
// partition on its own goroutine, exchanging cross-partition coupling
// contributions at a configured sync interval. Backends that cannot shard
// (the dense DSPU) simply do not implement the interface; a Sharded
// Request then runs the exact planned path.
type ShardedBackend interface {
	Backend
	// CompileShardedPlan compiles the clamp pattern into a sharded
	// inference plan, or returns nil when this machine cannot shard
	// (sharding disabled, single community, noise enabled, or the clamp
	// pattern leaves fewer than two partitions with free nodes). Like
	// CompilePlan the result depends only on WHICH nodes are clamped, is
	// immutable, and is cached by the engine (nil included, so the
	// shardability decision is made once per pattern residency).
	CompileShardedPlan(clamped []bool) any
	// RunSharded runs the partitioned anneal on a prepared state under a
	// non-nil plan previously returned by CompileShardedPlan. Same state
	// contract as RunPlanned; Result.Switches counts cross-shard sync
	// rounds.
	RunSharded(st *InferState, plan any) (*Result, error)
	// ShardCount reports how many partitions the sharded path would run
	// (0 or 1 when sharding is unavailable) — telemetry and warm-up
	// gating, never correctness.
	ShardCount() int
}

// Engine drives inference for one Backend: validation, plan caching,
// seeding, and batch fan-out. Safe for concurrent use.
type Engine struct {
	b Backend

	// plans is the clamp-plan cache: a bounded LRU behind a lock-free read
	// snapshot, per-key singleflight compilation, deterministic hit/miss
	// counters. The machinery lives in plancache.go because the OptEngine
	// resolves its schedule plans through the identical cache.
	plans planCache

	// Streaming plan-delta counters (stream.go): hits patched a
	// predecessor plan on a shifted pattern's cache miss, fallbacks fully
	// compiled one.
	planDeltaHits      atomic.Uint64
	planDeltaFallbacks atomic.Uint64

	// states recycles InferStates across RunBatch calls so repeated
	// batch windows stop re-allocating per-worker scratch arenas. Reuse is
	// safe because every inference fully re-seeds the state (voltages,
	// clamp mask, RNG, backend scratch).
	states freeList[*InferState]

	// EnsurePlan scratch: validating a probe pattern must not allocate a
	// fresh mask and key per call (EnsurePlan runs once per evaluation,
	// but sweeps call it per configuration).
	ensureMu      sync.Mutex
	ensureClamped []bool
	ensureKey     []byte

	// obsBind caches the instrument binding against the current default
	// obs registry; see metrics.go. Nil until the first inference.
	obsBind atomic.Pointer[engineObs]
}

// New binds an engine to its backend.
func New(b Backend) *Engine { return &Engine{b: b} }

// Backend returns the backend this engine drives.
func (e *Engine) Backend() Backend { return e.b }

// BaseSeed returns the backend's configured base seed (window i of a batch
// anneals with BaseSeed()+i).
func (e *Engine) BaseSeed() uint64 { return e.b.BaseSeed() }

// Path selects which anneal loop a Request runs.
type Path int

const (
	// Planned runs the backend's clamp-plan loop: the observation pattern
	// resolves to a compiled plan through the plan cache. The default.
	Planned Path = iota
	// Naive runs the backend's reference loop: no clamp plan, every
	// coupling re-evaluated in full each step. The plan-naive-identity
	// invariant asserts Planned and Naive return bit-identical Results for
	// every seed; benchmarks use it as the pre-folding baseline.
	Naive
	// Sharded runs the backend's partitioned anneal: graph partitions
	// anneal concurrently, exchanging cross-partition contributions at the
	// backend's sync interval. It falls back to Planned when the backend
	// does not shard (ShardedBackend not implemented, or CompileShardedPlan
	// declined the pattern) or when a step observer is installed — the
	// sharded loop dispatches no observers. Sharded runs are deterministic
	// per seed and tolerance-equivalent (not bit-identical) to Planned,
	// the contract the sharded-fixed-point verify invariant enforces.
	Sharded
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
	return e.run(st, req, nil)
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
	errs := make([]error, n)
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
	pool.RunWorkers(w, n, func(worker, i int) {
		results[i], errs[i] = detached(e.run(states[worker], reqs[i], nil))
	})
	for _, st := range states {
		e.putState(st)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
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
// the request's path needs, run the backend, record. A non-nil stream makes
// it a streaming tick: after the stream's cold first tick the free nodes
// keep the previous equilibrium as their init instead of a fresh random
// fill, and the plan resolves by delta from the previous pattern.
func (e *Engine) run(st *InferState, req Request, s *Stream) (*Result, error) {
	m := e.metrics()
	var start time.Time
	if m.enabled() {
		start = time.Now()
	}
	warm := s != nil && s.started
	st.RNG.Reseed(req.Seed)
	if !warm {
		st.RNG.FillUniform(st.X, -0.1, 0.1)
	}
	st.WarmStart = warm
	b := e.b
	err := validateObservations(b.Name(), req.Obs, len(st.X), b.Rails(), st.X, st.Clamped, &st.ClampIdx)
	var res *Result
	if err == nil {
		res, err = e.anneal(st, req.Path, s, m)
	}
	m.recordInfer(res, err, start)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// anneal resolves the plan for the path on a prepared state and runs the
// matching backend loop. The Planned result is bit-identical to Naive's —
// a plan only reorganizes which floating-point operations are hoisted,
// never their order (the backends' compilation discipline).
func (e *Engine) anneal(st *InferState, path Path, s *Stream, m *engineObs) (*Result, error) {
	switch path {
	case Planned:
	case Naive:
		return e.b.RunNaive(st)
	case Sharded:
		if sb, ok := e.b.(ShardedBackend); ok && st.Observer == nil {
			key := packMask(st.Clamped, st.KeyBuf)
			key[len(key)-1] = shardPlanTag
			if pl := e.planFor(st.Clamped, key, sb.CompileShardedPlan); pl != nil {
				res, err := sb.RunSharded(st, pl)
				if err == nil && m.enabled() {
					m.shardInfers.Inc()
					m.shardSyncRounds.Add(uint64(res.Switches))
					m.shardAnnealSteps.Add(uint64(res.Steps))
					m.shardWorkers.Set(float64(sb.ShardCount()))
				}
				return res, err
			}
		}
	default:
		return nil, fmt.Errorf("%s: unknown inference path %d", e.b.Name(), path)
	}
	key := packMask(st.Clamped, st.KeyBuf)[:maskBytes(len(st.X))]
	compile := e.b.CompilePlan
	if s != nil && s.started && !bytes.Equal(key, s.prevKey) {
		if db, ok := e.b.(DeltaBackend); ok {
			// The closure only runs on a cache miss, so the delta counters
			// move once per new pattern, not once per tick.
			prevPl, resident := e.plans.peek(s.prevKey)
			prevClamped := s.prevClamped
			compile = func(clamped []bool) any {
				return e.compileDelta(db, prevPl, resident, prevClamped, clamped, m)
			}
		}
	}
	return e.b.RunPlanned(st, e.planFor(st.Clamped, key, compile))
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
func (e *Engine) EnsurePlan(obs []Observation) error {
	e.ensureMu.Lock()
	defer e.ensureMu.Unlock()
	n := e.b.Dim()
	if e.ensureClamped == nil {
		e.ensureClamped = make([]bool, n)
		e.ensureKey = make([]byte, maskBytes(n)+1)
	}
	if err := validateObservations(e.b.Name(), obs, n, e.b.Rails(), nil, e.ensureClamped, nil); err != nil {
		return err
	}
	e.planFor(e.ensureClamped, packMask(e.ensureClamped, e.ensureKey)[:maskBytes(n)], e.b.CompilePlan)
	// Warm the sharded variant too when the backend actually shards, so a
	// sharded batch starts hot on every worker as well.
	if sb, ok := e.b.(ShardedBackend); ok && sb.ShardCount() >= 2 {
		key := packMask(e.ensureClamped, e.ensureKey)
		key[len(key)-1] = shardPlanTag
		e.planFor(e.ensureClamped, key, sb.CompileShardedPlan)
	}
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

// shardPlanTag distinguishes sharded-plan cache keys from exact-plan keys:
// exact keys are the bare maskBytes(n) bitmask, sharded keys carry one
// trailing tag byte. Both variants of one pattern can be resident at once.
const shardPlanTag = 1

// planFor resolves the clamp pattern to a compiled plan through the shared
// plan cache (see plancache.go for the lock-free warm path, the per-key
// singleflight compile, and the counter-determinism guarantee).
func (e *Engine) planFor(clamped []bool, key []byte, compile func([]bool) any) any {
	m := e.metrics()
	return e.plans.resolve(key, func() any { return compile(clamped) }, m.planObs())
}

// maskBytes is the packed-bitmask length for n nodes.
func maskBytes(n int) int { return (n + 7) / 8 }

// packMask packs the clamp mask into buf as a little-endian bitmask — the
// plan-cache key. buf must have at least maskBytes(len(clamped)) bytes;
// any extra bytes (the sharded-plan tag slot) are zeroed.
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
