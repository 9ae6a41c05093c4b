package engine

import (
	"time"

	"dsgl/internal/obs"
)

// engineObs bundles the engine's pre-registered instruments. A binding is
// built once per (engine, registry) pair and cached on the engine behind
// an atomic pointer: the hot path loads the pointer, compares the bound
// registry against obs.Default(), and — in the steady state — proceeds
// with zero allocations. When observability is disabled (nil default
// registry) the binding carries nil instruments, whose nil-receiver
// methods are no-ops, and the timing calls are skipped entirely; the
// zero-alloc anneal contract holds in both states (enforced by
// TestInferPlanObsZeroAlloc and the BenchmarkInferPlan allocs column).
//
// Instruments record once per inference or batch, never per step.
type engineObs struct {
	reg *obs.Registry // registry the instruments belong to (nil = disabled)
	sharedObs

	// Plan-cache instruments, which planCache.resolve records into.
	planHits              *obs.Counter // dsgl_plan_cache_hits_total
	planMisses            *obs.Counter // dsgl_plan_cache_misses_total
	planEvictions         *obs.Counter // dsgl_plan_cache_evictions_total
	planResident          *obs.Gauge   // dsgl_plan_cache_resident
	planSingleflightWaits *obs.Counter // dsgl_plan_singleflight_waits_total

	infers         *obs.Counter   // dsgl_infer_total
	inferErrors    *obs.Counter   // dsgl_infer_errors_total
	inferSettled   *obs.Counter   // dsgl_infer_settled_total
	wallSeconds    *obs.Histogram // dsgl_infer_wall_seconds
	simNs          *obs.Histogram // dsgl_infer_sim_ns
	annealSteps    *obs.Counter   // dsgl_anneal_steps_total
	settleResidual *obs.Summary   // dsgl_settle_residual
	batches        *obs.Counter   // dsgl_infer_batch_total
	batchWindows   *obs.Counter   // dsgl_infer_batch_windows_total
	batchWorkers   *obs.Gauge     // dsgl_infer_batch_workers

	// Streaming-inference instruments (stream.go): the warm-vs-cold
	// steps-to-settle comparison the warm-start path is judged by.
	streamTicks     *obs.Counter // dsgl_stream_ticks_total
	streamColdSteps *obs.Summary // dsgl_stream_cold_steps
	streamWarmSteps *obs.Summary // dsgl_stream_warm_steps
}

// newEngineObs registers (or re-binds, registration being idempotent) the
// engine instrument set on r, labeled by backend. Nil r yields a disabled
// binding of nil no-op instruments.
func newEngineObs(r *obs.Registry, backend string) *engineObs {
	if r == nil {
		return &engineObs{}
	}
	l := obs.L("backend", backend)
	return &engineObs{
		reg:       r,
		sharedObs: newSharedObs(r, l),

		planHits:              r.Counter("dsgl_plan_cache_hits_total", "clamp-plan cache hits", l),
		planMisses:            r.Counter("dsgl_plan_cache_misses_total", "clamp-plan cache misses (each splits a plan)", l),
		planEvictions:         r.Counter("dsgl_plan_cache_evictions_total", "clamp-plan cache evictions", l),
		planResident:          r.Gauge("dsgl_plan_cache_resident", "clamp plans currently resident, counted from the start of their compile", l),
		planSingleflightWaits: r.Counter("dsgl_plan_singleflight_waits_total", "plan resolutions that waited on another worker's in-flight compile", l),

		infers:         r.Counter("dsgl_infer_total", "completed inferences", l),
		inferErrors:    r.Counter("dsgl_infer_errors_total", "inferences rejected or failed", l),
		inferSettled:   r.Counter("dsgl_infer_settled_total", "inferences that settled before the time budget", l),
		wallSeconds:    r.Histogram("dsgl_infer_wall_seconds", "host wall time per inference", l),
		simNs:          r.Histogram("dsgl_infer_sim_ns", "simulated anneal latency per inference (Result.LatencyNs)", l),
		annealSteps:    r.Counter("dsgl_anneal_steps_total", "integration steps taken across all inferences", l),
		settleResidual: r.Summary("dsgl_settle_residual", "equilibrium residual max |dsigma/dt| at convergence (settled inferences)", l),
		batches:        r.Counter("dsgl_infer_batch_total", "RunBatch invocations (Evaluate, EvaluateParallel, InferBatch, serve batches of any size)", l),
		batchWindows:   r.Counter("dsgl_infer_batch_windows_total", "windows fanned out across all batches", l),
		batchWorkers:   r.Gauge("dsgl_infer_batch_workers", "worker count of the most recent batch", l),

		streamTicks:     r.Counter("dsgl_stream_ticks_total", "streaming inference ticks (cold first ticks included)", l),
		streamColdSteps: r.Summary("dsgl_stream_cold_steps", "integration steps to settle on a stream's cold first tick", l),
		streamWarmSteps: r.Summary("dsgl_stream_warm_steps", "integration steps to settle on warm-started stream ticks", l),
	}
}

// enabled reports whether this binding records anywhere.
func (m *engineObs) enabled() bool { return m.reg != nil }

// sharedObs is the instrument pair both engines register, labeled by their
// backend: the state free-list's. Registering it in one place gives each
// family one help string, whichever engine binds first.
type sharedObs struct {
	statePoolHits   *obs.Counter // dsgl_state_pool_hits_total
	statePoolMisses *obs.Counter // dsgl_state_pool_misses_total
}

// newSharedObs registers the shared instrument pair on r (non-nil) under
// label l.
func newSharedObs(r *obs.Registry, l obs.Label) sharedObs {
	return sharedObs{
		statePoolHits:   r.Counter("dsgl_state_pool_hits_total", "scratch states (batch and restart workers, stream sessions, EnsurePlan checks) served from the engine free-list", l),
		statePoolMisses: r.Counter("dsgl_state_pool_misses_total", "scratch states allocated because the engine free-list was dry", l),
	}
}

// metrics returns the engine's instrument binding for the current default
// registry, rebuilding it only when the registry changed (enable/disable/
// test swap). The steady-state cost is one atomic load and one pointer
// compare.
func (e *Engine) metrics() *engineObs {
	m := e.obsBind.Load()
	r := obs.Default()
	if m != nil && m.reg == r {
		return m
	}
	m = newEngineObs(r, e.b.Name())
	e.obsBind.Store(m)
	return m
}

// recordInfer records the outcome of one anneal. start is meaningful only
// when the binding is enabled (callers skip the clock otherwise).
func (m *engineObs) recordInfer(res *Result, err error, start time.Time) {
	if !m.enabled() {
		return
	}
	if err != nil {
		m.inferErrors.Inc()
		return
	}
	m.infers.Inc()
	m.wallSeconds.Observe(time.Since(start).Seconds())
	m.simNs.Observe(res.LatencyNs)
	m.annealSteps.Add(uint64(res.Steps))
	if res.Settled {
		m.inferSettled.Inc()
		// Residual is NaN when no convergence check fired; Observe skips
		// NaN, so the summary only aggregates real residuals.
		m.settleResidual.Observe(res.Residual)
	}
}

// optObs is the OptEngine's instrument binding — same caching discipline as
// engineObs, the same shared state-pool pair (labeled by the solver
// backend), plus the solve-specific set. Instruments record once
// per restart or batch, never per sweep.
type optObs struct {
	reg *obs.Registry // registry the instruments belong to (nil = disabled)
	sharedObs

	solves       *obs.Counter   // dsgl_opt_solves_total
	solveErrors  *obs.Counter   // dsgl_opt_solve_errors_total
	solveSteps   *obs.Counter   // dsgl_opt_steps_total
	restarts     *obs.Counter   // dsgl_opt_restarts_total
	batches      *obs.Counter   // dsgl_opt_batch_total
	batchWorkers *obs.Gauge     // dsgl_opt_batch_workers
	bestEnergy   *obs.Gauge     // dsgl_opt_best_energy
	wallSeconds  *obs.Histogram // dsgl_opt_wall_seconds
}

// newOptObs registers the solver instrument set on r, labeled by backend.
// Nil r yields a disabled binding of nil no-op instruments.
func newOptObs(r *obs.Registry, backend string) *optObs {
	if r == nil {
		return &optObs{}
	}
	l := obs.L("backend", backend)
	return &optObs{
		reg:          r,
		sharedObs:    newSharedObs(r, l),
		solves:       r.Counter("dsgl_opt_solves_total", "completed solver restarts", l),
		solveErrors:  r.Counter("dsgl_opt_solve_errors_total", "solver restarts rejected or failed", l),
		solveSteps:   r.Counter("dsgl_opt_steps_total", "sweeps or integration steps taken across all restarts", l),
		restarts:     r.Counter("dsgl_opt_restarts_total", "restarts fanned out across all Solve batches", l),
		batches:      r.Counter("dsgl_opt_batch_total", "multi-restart SolveFrom invocations", l),
		batchWorkers: r.Gauge("dsgl_opt_batch_workers", "worker count of the most recent Solve batch", l),
		bestEnergy:   r.Gauge("dsgl_opt_best_energy", "best Hamiltonian energy of the most recent Solve batch", l),
		wallSeconds:  r.Histogram("dsgl_opt_wall_seconds", "host wall time per solver restart", l),
	}
}

// enabled reports whether this binding records anywhere.
func (m *optObs) enabled() bool { return m.reg != nil }

// metrics returns the optimization engine's instrument binding for the
// current default registry; same steady-state cost as Engine.metrics.
func (e *OptEngine) metrics() *optObs {
	m := e.obsBind.Load()
	r := obs.Default()
	if m != nil && m.reg == r {
		return m
	}
	m = newOptObs(r, e.b.Name())
	e.obsBind.Store(m)
	return m
}

// recordSolve records the outcome of one restart. start is meaningful only
// when the binding is enabled.
func (m *optObs) recordSolve(res *OptResult, err error, start time.Time) {
	if !m.enabled() {
		return
	}
	if err != nil {
		m.solveErrors.Inc()
		return
	}
	m.solves.Inc()
	m.wallSeconds.Observe(time.Since(start).Seconds())
	m.solveSteps.Add(uint64(res.Steps))
}
