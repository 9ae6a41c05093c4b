package engine

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"dsgl/internal/pool"
	"dsgl/internal/rng"
)

// This file is the optimization half of the engine: the regression Engine
// drives clamp-observation inference (plan = the coupling list split
// against a clamp bitmask), the OptEngine drives combinatorial solvers
// (plan = the ladder of an annealing schedule). The split keeps what every
// dynamical system shares — state lifecycle and pooling, the BaseSeed()+i
// seeding convention, batch fan-out over internal/pool, StepObserver
// dispatch with the lazy EnergyFn, obs instrumentation — in one place,
// while the contracts diverge where the problems genuinely differ: a
// solver has no observations to validate, no rails, no window semantics;
// it has a schedule to compile and restarts to fan out.
//
// Bit-exactness discipline carries over unchanged: the OptEngine never
// touches a restart's floating-point path. It seeds the state RNG and hands
// off to the backend's RunSolve, so restart i of a multi-restart batch is a
// pure function of (schedule-for-restart-i, baseSeed+i) and a parallel
// SolveFrom is bit-identical to a sequential loop for any worker count — the
// same property the regression batch engine proves under -race.

// Schedule kinds of the annealing-schedule library.
const (
	// ScheduleLinear ramps the control value linearly from T0 to T1.
	ScheduleLinear = "linear"
	// ScheduleGeometric cools geometrically from T0 to T1 — the classic
	// simulated-annealing ladder.
	ScheduleGeometric = "geometric"
	// ScheduleAdaptive is the geometric ladder made restart-aware: restart
	// r reheats its starting value to T0·Reheat^(r mod Period), cycling
	// through Period exploration intensities. The adaptation is a pure
	// function of the restart index — never of another restart's outcome —
	// which is what keeps a parallel multi-restart batch bit-identical to
	// the sequential loop.
	ScheduleAdaptive = "adaptive"
)

// Schedule is an annealing schedule: the optimization analogue of the
// regression engine's clamp pattern. The engine compiles it into a Ladder
// once per SolveFrom call for each distinct restart schedule: one ladder,
// or one per reheat phase of the adaptive kind.
//
// The control value T is dimensionless; each dynamics interprets the ladder
// in its own units (Metropolis: temperature; BRIM: flip fraction scale;
// OIM: SHIL ramp position). T runs from T0 at step 0 to T1 at step Steps-1.
type Schedule struct {
	Kind  string  // ScheduleLinear | ScheduleGeometric | ScheduleAdaptive
	Steps int     // sweeps (discrete dynamics) or integration steps per restart
	T0    float64 // initial control value (> 0)
	T1    float64 // final control value (> 0, <= T0)
	// Period and Reheat shape the adaptive kind: restart r starts from
	// T0·Reheat^(r mod Period) (clamped below at T1). Ignored by the other
	// kinds.
	Period int
	Reheat float64
}

// LinearSchedule builds a linear ramp schedule.
func LinearSchedule(steps int, t0, t1 float64) Schedule {
	return Schedule{Kind: ScheduleLinear, Steps: steps, T0: t0, T1: t1}
}

// GeometricSchedule builds a geometric cooling schedule.
func GeometricSchedule(steps int, t0, t1 float64) Schedule {
	return Schedule{Kind: ScheduleGeometric, Steps: steps, T0: t0, T1: t1}
}

// AdaptiveSchedule builds a restart-adaptive geometric schedule: restarts
// cycle through period starting values T0·reheat^p, p = restart mod period.
func AdaptiveSchedule(steps int, t0, t1 float64, period int, reheat float64) Schedule {
	return Schedule{Kind: ScheduleAdaptive, Steps: steps, T0: t0, T1: t1, Period: period, Reheat: reheat}
}

// Validate checks the schedule parameters.
func (s Schedule) Validate() error {
	switch s.Kind {
	case ScheduleLinear, ScheduleGeometric, ScheduleAdaptive:
	default:
		return fmt.Errorf("schedule kind %q not one of %s|%s|%s", s.Kind, ScheduleLinear, ScheduleGeometric, ScheduleAdaptive)
	}
	if s.Steps < 1 {
		return fmt.Errorf("schedule needs Steps >= 1, got %d", s.Steps)
	}
	if !(s.T0 > 0) || !(s.T1 > 0) || math.IsInf(s.T0, 1) || math.IsInf(s.T1, 1) {
		return fmt.Errorf("schedule endpoints must be positive and finite, got T0=%g T1=%g", s.T0, s.T1)
	}
	if s.T1 > s.T0 {
		return fmt.Errorf("schedule must cool: T1=%g > T0=%g", s.T1, s.T0)
	}
	if s.Kind == ScheduleAdaptive {
		if s.Period < 1 {
			return fmt.Errorf("adaptive schedule needs Period >= 1, got %d", s.Period)
		}
		if !(s.Reheat > 0) {
			return fmt.Errorf("adaptive schedule needs Reheat > 0, got %g", s.Reheat)
		}
		// A reheat above 1 starts the last restart of each cycle hottest,
		// at T0·Reheat^(Period-1) as ForRestart computes it; a start that
		// overflows would anneal on +Inf, then NaN.
		if s.Reheat > 1 && math.IsInf(s.T0*math.Pow(s.Reheat, float64(s.Period-1)), 1) {
			return fmt.Errorf("adaptive schedule's hottest start T0·Reheat^(Period-1) is not finite (T0=%g Reheat=%g Period=%d)", s.T0, s.Reheat, s.Period)
		}
	}
	return nil
}

// At evaluates the control ladder at step k in [0, Steps): T0 at 0, T1 at
// Steps-1, linear or geometric in between (the adaptive kind anneals each
// restart on the geometric ladder of its ForRestart-derived endpoints).
func (s Schedule) At(k int) float64 {
	if s.Steps <= 1 {
		return s.T0
	}
	f := float64(k) / float64(s.Steps-1)
	if s.Kind == ScheduleLinear {
		return s.T0 + (s.T1-s.T0)*f
	}
	return s.T0 * math.Pow(s.T1/s.T0, f)
}

// ForRestart derives the concrete schedule restart r anneals under. The
// linear and geometric kinds are restart-invariant; the adaptive kind
// reheats T0 by Reheat^(r mod Period), clamped below at T1, so a restart
// batch cycles deterministically through Period exploration intensities.
func (s Schedule) ForRestart(r int) Schedule {
	if s.Kind != ScheduleAdaptive {
		return s
	}
	eff := s
	t0 := s.T0 * math.Pow(s.Reheat, float64(r%s.Period))
	if t0 < s.T1 {
		t0 = s.T1
	}
	eff.T0 = t0
	return eff
}

// Ladder is a compiled schedule: the control value of every step, shared
// read-only by every restart of a SolveFrom call that anneals under it.
type Ladder struct {
	Sched Schedule
	Temps []float64 // Temps[k] = Sched.At(k), for k in [0, Sched.Steps)
}

// compileLadder evaluates the schedule at every step.
func compileLadder(s Schedule) *Ladder {
	temps := make([]float64, s.Steps)
	for k := range temps {
		temps[k] = s.At(k)
	}
	return &Ladder{Sched: s, Temps: temps}
}

// OptBackend is the contract a combinatorial solver implements to be driven
// by the OptEngine. All methods except RunSolve must be safe for concurrent
// use; RunSolve is called with a per-worker SolveState and may only mutate
// that state (plus backend-owned immutable data), which is what makes a
// parallel multi-restart SolveFrom race-free.
type OptBackend interface {
	// Name prefixes error messages and names the backend in CLIs, reports,
	// and obs labels ("ising-brim", "ising-metropolis", ...).
	Name() string
	// Dim is the spin-vector dimension (node count of the instance).
	Dim() int
	// BaseSeed is the backend's configured seed; a multi-restart
	// SolveFrom from it runs restart i with BaseSeed()+i.
	BaseSeed() uint64
	// AttachSolveState allocates the backend's scratch arena into
	// st.Scratch (and may rebind st.EnergyFn). Called once per SolveState,
	// from NewSolveState.
	AttachSolveState(st *SolveState)
	// RunSolve runs one restart on a prepared state (st.RNG seeded; spin
	// and carrier buffers are scratch the backend initializes) under the
	// schedule's ladder, which the engine compiled and may share with other
	// workers. It writes st.Res — the best state seen during the restart
	// and its energy — and returns &st.Res.
	RunSolve(st *SolveState, l *Ladder) (*OptResult, error)
	// EnergyOf evaluates the objective Hamiltonian at spin vector s; the
	// engine binds it into the lazy StepInfo.EnergyFn handed to observers,
	// and the opt-best-energy-monotone invariant recomputes reported
	// energies through it.
	EnergyOf(s []int8) float64
}

// OptResult is the outcome of one solver restart: the best spin state seen
// during the anneal (not necessarily the final one) and its energy.
type OptResult struct {
	Spins    []int8
	Energy   float64
	BestStep int // step index at which the best state was first reached
	Steps    int // total steps (sweeps or integration steps) taken
}

// Detach deep-copies the result so it no longer aliases state buffers.
func (r *OptResult) Detach() *OptResult {
	c := *r
	c.Spins = append([]int8(nil), r.Spins...)
	return &c
}

// OptRun is the outcome of a multi-restart SolveFrom.
type OptRun struct {
	// Best is the lowest-energy restart's result; ties resolve to the
	// earliest restart, so Best is worker-count independent.
	Best *OptResult
	// BestRestart is the restart index that produced Best.
	BestRestart int
	// Energies is the per-restart best energy, in restart order.
	Energies []float64
	// BestTrace is the best-energy-so-far after each restart — the
	// non-increasing trace the opt-best-energy-monotone invariant checks.
	BestTrace []float64
	// Restarts and Steps total the run.
	Restarts int
	Steps    int
}

// SolveState is the reusable per-worker scratch arena for one solver
// restart — the optimization peer of InferState. The engine owns the
// backend-independent buffers; the backend hangs its own arena off Scratch
// in AttachSolveState. A state belongs to the engine that created it and
// must not be shared between goroutines; parallel restarts use one state
// per worker (SolveFrom arranges this automatically).
type SolveState struct {
	eng *OptEngine

	// Spins is the working spin vector. Continuous dynamics refresh it from
	// the carrier state at schedule checkpoints; discrete dynamics update it
	// in place.
	Spins []int8
	// X is the continuous carrier state (node voltages for BRIM, oscillator
	// phases for OIM); purely discrete dynamics ignore it.
	X []float64
	// RNG is the per-state stream, reseeded per restart.
	RNG rng.RNG
	// Res is the in-place result of the last restart on this state.
	Res OptResult
	// Observer, when non-nil, receives StepInfo at the backend's
	// observation points (every sweep for discrete dynamics, every schedule
	// checkpoint for continuous ones).
	Observer StepObserver
	// EnergyFn is the pre-bound lazy objective closure handed to observers;
	// it evaluates the backend's EnergyOf over the current Spins.
	EnergyFn func() float64
	// Scratch is the backend's private arena, allocated by AttachSolveState.
	Scratch any
}

// SetObserver installs (or, with nil, removes) a per-step observer on this
// state.
func (st *SolveState) SetObserver(fn StepObserver) { st.Observer = fn }

// OptEngine drives multi-restart solving for one OptBackend: schedule
// validation, ladder compilation, seeding, and restart fan-out. Safe for
// concurrent use.
type OptEngine struct {
	b OptBackend

	// states recycles SolveStates across SolveFrom calls.
	states freeList[*SolveState]

	// obsBind caches the instrument binding; see metrics.go.
	obsBind atomic.Pointer[optObs]
}

// NewOpt binds an optimization engine to its backend.
func NewOpt(b OptBackend) *OptEngine { return &OptEngine{b: b} }

// BaseSeed returns the backend's configured base seed (callers that want
// the backend's own seeding pass it to SolveFrom).
func (e *OptEngine) BaseSeed() uint64 { return e.b.BaseSeed() }

// NewSolveState allocates a scratch arena sized for this engine's backend.
func (e *OptEngine) NewSolveState() *SolveState {
	n := e.b.Dim()
	st := &SolveState{
		eng:   e,
		Spins: make([]int8, n),
		X:     make([]float64, n),
	}
	st.Res.Spins = make([]int8, n)
	st.EnergyFn = func() float64 { return e.b.EnergyOf(st.Spins) }
	e.b.AttachSolveState(st)
	return st
}

// SolveWith runs one restart on a reusable scratch state with an explicit
// seed under the given concrete schedule, whose ladder it compiles. After
// the state's first use the only heap allocations are the ladder's. The
// returned result aliases the state's buffers; Detach it if it must
// outlive the state.
func (e *OptEngine) SolveWith(st *SolveState, sched Schedule, seed uint64) (*OptResult, error) {
	if st == nil || st.eng != e {
		return nil, fmt.Errorf("%s: SolveState belongs to a different engine", e.b.Name())
	}
	if err := sched.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %v", e.b.Name(), err)
	}
	return e.solve(st, compileLadder(sched), seed)
}

// solve is the one restart sequence behind SolveWith and SolveFrom: seed
// the state, run the backend under the compiled ladder, record.
func (e *OptEngine) solve(st *SolveState, l *Ladder, seed uint64) (*OptResult, error) {
	m := e.metrics()
	var start time.Time
	if m.enabled() {
		start = time.Now()
	}
	st.RNG.Reseed(seed)
	res, err := e.b.RunSolve(st, l)
	m.recordSolve(res, err, start)
	return res, err
}

// SolveSeeded runs one restart with an explicit seed on a fresh state and
// returns a detached result.
func (e *OptEngine) SolveSeeded(sched Schedule, seed uint64) (*OptResult, error) {
	res, err := e.SolveWith(e.NewSolveState(), sched, seed)
	if err != nil {
		return nil, err
	}
	return res.Detach(), nil
}

// SolveFrom fans restarts out across a pool of workers (workers <= 0
// selects runtime.GOMAXPROCS(0)): restart i anneals under
// sched.ForRestart(i) with seed base+i, making the run bit-identical to a
// sequential loop over the restarts — regardless of worker count or
// scheduling. Each distinct restart schedule's ladder compiles once per
// call: ForRestart depends on i only through i mod Period, so the adaptive
// kind needs min(Period, restarts) ladders and the other kinds one.
func (e *OptEngine) SolveFrom(sched Schedule, base uint64, restarts, workers int) (*OptRun, error) {
	if restarts < 1 {
		restarts = 1
	}
	if err := sched.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %v", e.b.Name(), err)
	}
	count := 1
	if sched.Kind == ScheduleAdaptive {
		count = min(sched.Period, restarts)
	}
	ladders := make([]*Ladder, count)
	for i := range ladders {
		ladders[i] = compileLadder(sched.ForRestart(i))
	}
	results := make([]*OptResult, restarts)
	w := pool.Clamp(workers, restarts)
	states := make([]*SolveState, w)
	for i := range states {
		states[i] = e.getState()
	}
	if m := e.metrics(); m.enabled() {
		m.batches.Inc()
		m.restarts.Add(uint64(restarts))
		m.batchWorkers.Set(float64(w))
	}
	err := pool.RunWorkersErr(w, restarts, func(worker, i int) error {
		res, err := e.solve(states[worker], ladders[i%count], base+uint64(i))
		if err != nil {
			return err
		}
		results[i] = res.Detach()
		return nil
	})
	for _, st := range states {
		e.putState(st)
	}
	if err != nil {
		return nil, err
	}
	run := &OptRun{
		Energies:  make([]float64, restarts),
		BestTrace: make([]float64, restarts),
		Restarts:  restarts,
	}
	best := math.Inf(1)
	for i, res := range results {
		run.Energies[i] = res.Energy
		run.Steps += res.Steps
		// Strict improvement only: equal-energy later restarts never
		// displace an earlier one, so Best is restart-order deterministic.
		if res.Energy < best {
			best = res.Energy
			run.Best = res
			run.BestRestart = i
		}
		run.BestTrace[i] = best
	}
	// NaN and +Inf never compare below +Inf, so a run whose every energy
	// is one of them has no best restart.
	if run.Best == nil {
		return nil, fmt.Errorf("%s: no restart reached a comparable energy (energies %v)", e.b.Name(), run.Energies)
	}
	if m := e.metrics(); m.enabled() {
		m.bestEnergy.Set(run.Best.Energy)
	}
	return run, nil
}

// PlanCacheStats reports 0, 0: SolveFrom compiles its ladders per call and
// caches none.
//
// Deprecated: the ladder cache it counted was removed. The method remains
// only while the repo benchmark calls it (ROADMAP item 1).
func (e *OptEngine) PlanCacheStats() (hits, misses uint64) { return 0, 0 }

// getState draws a reusable SolveState from the free-list, allocating a
// fresh one only when the pool is dry.
func (e *OptEngine) getState() *SolveState {
	if st, ok := e.states.get(); ok {
		e.metrics().statePoolHits.Inc()
		return st
	}
	e.metrics().statePoolMisses.Inc()
	return e.NewSolveState()
}

// putState returns a state to the free-list. Observers never survive
// pooling: a recycled state must behave exactly like a fresh one.
func (e *OptEngine) putState(st *SolveState) {
	st.Observer = nil
	e.states.put(st)
}

// BestEnergyTrace accumulates the best-energy-so-far seen during one
// restart via the lazy StepInfo.EnergyFn — install Observer() on a
// SolveState to record the descent envelope without the backend evaluating
// the Hamiltonian on steps nobody watches.
type BestEnergyTrace struct {
	// Stride samples the energy every Stride observed steps (<= 1 means
	// every observation point).
	Stride int
	// Best and BestStep track the minimum sampled energy.
	Best     float64
	BestStep int
	// Trace is the best-so-far at each sample — non-increasing by
	// construction.
	Trace []float64

	n int
}

// Reset clears the trace for a new restart.
func (t *BestEnergyTrace) Reset() {
	t.Best = math.Inf(1)
	t.BestStep = 0
	t.Trace = t.Trace[:0]
	t.n = 0
}

// Observer returns the StepObserver that feeds this trace.
func (t *BestEnergyTrace) Observer() StepObserver {
	if t.Best == 0 && len(t.Trace) == 0 && t.n == 0 {
		t.Best = math.Inf(1)
	}
	stride := t.Stride
	if stride < 1 {
		stride = 1
	}
	return func(si StepInfo) {
		if t.n%stride == 0 {
			if e := si.EnergyFn(); e < t.Best {
				t.Best = e
				t.BestStep = si.Step
			}
			t.Trace = append(t.Trace, t.Best)
		}
		t.n++
	}
}
