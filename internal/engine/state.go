package engine

import (
	"fmt"
	"math"

	"dsgl/internal/mat"
	"dsgl/internal/rng"
)

// Observation clamps node Index to Value during inference.
type Observation struct {
	Index int
	Value float64
}

// Result is the outcome of one inference, shared by every backend. Fields a
// backend does not model stay zero (the dense DSPU performs no slice
// switching, so Switches is always 0 there; the scalable machine's latency
// already includes switch overhead).
type Result struct {
	Voltage   []float64
	LatencyNs float64 // annealing time + any switching overhead
	AnnealNs  float64 // annealing time only
	Settled   bool
	Switches  int // mapping switches (= synchronization events) performed
	Steps     int // integration steps taken
	Energy    float64
	// Residual is the full-coupling equilibrium residual max |dσ/dt| seen
	// by the most recent in-loop convergence check; NaN when the run ended
	// (budget exhausted) before any full-residual check fired. When Settled
	// is true it is guaranteed below the backend's SettleResidualTol.
	Residual float64
}

// Detach deep-copies a Result so it no longer aliases scratch buffers.
func (r *Result) Detach() *Result {
	c := *r
	c.Voltage = mat.CopyVec(r.Voltage)
	return &c
}

// StepInfo is the per-step telemetry handed to a StepObserver: the step
// index, the simulated anneal time, a lazy evaluator for the Hamiltonian of
// the full compiled system at the post-step state, the live mapping slice
// (always 0 for single-phase backends), the max |dσ/dt| the convergence
// check saw, and the state vector itself. X aliases the inference scratch
// buffer — read it during the callback, copy it if it must outlive the step,
// never write it.
//
// EnergyFn computes the engine's EnergyAt(X) on demand. Evaluating the
// Hamiltonian walks every stored coupling — O(nnz) per call — which used to
// tax every observed step even when the observer never looked at the energy.
// The hot loops hand out a pre-bound closure and pay only when the observer
// actually calls it. Like X, EnergyFn reads the live scratch buffers and is
// valid only during the callback.
type StepInfo struct {
	Step     int
	TimeNs   float64
	EnergyFn func() float64
	MaxDeriv float64
	Phase    int
	X        []float64
}

// StepObserver receives StepInfo after every integration step of an
// inference. Observers are the hook the invariant-verification harness uses
// to watch monotone energy descent (paper Eqs. 6-8); they run inline in the
// anneal loop, so an installed observer trades speed for visibility. A nil
// observer costs one branch per step and keeps the hot loop allocation-free.
type StepObserver func(StepInfo)

// InferState is a reusable per-worker scratch arena for inference. The
// engine owns the backend-independent buffers — working voltages, clamp
// mask, plan-cache key, RNG, result, observer, the Naive path's plan — and
// the backend hangs its own arena off Scratch in AttachState. After the state's first
// use an inference runs allocation-free (enforced per backend by the
// zero-alloc tests and the benchmark allocs/op columns).
//
// A state belongs to the engine that created it and must not be shared
// between goroutines; concurrent inference uses one state per worker
// (InferBatch arranges this automatically).
type InferState struct {
	eng *Engine

	// X is the working voltage vector. Observations are clamped into it;
	// free entries are seeded by the engine before each anneal.
	X []float64
	// Clamped marks the observed nodes.
	Clamped []bool
	// KeyBuf is the packed clamp-mask plan-cache key scratch.
	KeyBuf []byte
	// RNG is the per-state noise/init stream, reseeded per inference.
	RNG rng.RNG
	// Res is the in-place result of the last inference on this state.
	Res Result
	// WarmStart marks the state as carrying a previous equilibrium into
	// this run (a streaming warm tick): X's free entries are the settled
	// voltages of the predecessor tick, not a fresh random init. Backends
	// may exploit it — the scalable machine seeds every held slice from
	// the warm state up front and settles on a fine-grained check instead
	// of waiting out a full slice cycle. Run clears it; only a Stream's
	// warm ticks arm it.
	WarmStart bool
	// Observer, when non-nil, receives StepInfo after every step.
	Observer StepObserver
	// EnergyFn is the pre-bound lazy Hamiltonian closure handed to
	// observers; it evaluates the engine's EnergyAt over X.
	EnergyFn func() float64
	// Scratch is the backend's private arena, allocated by AttachState.
	Scratch any

	// unfolded is the Naive path's plan, refilled per inference: a state
	// reused across inferences refills it without allocating.
	unfolded mat.ClampSplit
}

// NewInferState allocates a scratch arena sized for this engine's backend.
func (e *Engine) NewInferState() *InferState {
	n := e.cpl.Dim()
	st := &InferState{
		eng:     e,
		X:       make([]float64, n),
		Clamped: make([]bool, n),
		KeyBuf:  make([]byte, maskBytes(n)),
	}
	st.EnergyFn = func() float64 { return e.EnergyAt(st.X) }
	e.b.AttachState(st)
	return st
}

// SetObserver installs (or, with nil, removes) a per-step observer on this
// state. The observer applies to every subsequent inference run on the
// state.
func (st *InferState) SetObserver(fn StepObserver) { st.Observer = fn }

// Result returns the outcome of the last inference run on this state. The
// Voltage slice aliases the state's internal buffer and is overwritten by
// the next inference; copy it (or Detach) if it must outlive the state.
func (st *InferState) Result() *Result { return &st.Res }

// validateObservations is the single observation validator every entry point
// runs — index range, finite value within the rail bound, duplicate
// rejection. Non-finite values need their own check: |NaN| > rail is
// false, so the rail bound alone would let a NaN into the anneal. A
// duplicate index is rejected rather than silently last-wins: two
// observations for one node are almost always a windowing bug, and the
// clamp-plan key (which is a set, not a list) would otherwise hide the
// difference.
//
// clamped (length n) is reset and filled as the mask. When x is non-nil
// the observation values are clamped into it, but only once every
// observation has passed: a rejected stream tick must leave the warm state
// the next tick starts from untouched. Passing nil validates without
// mutating any inference state — the EnsurePlan path.
func validateObservations(name string, obs []Observation, n int, rail float64, x []float64, clamped []bool) error {
	for i := range clamped {
		clamped[i] = false
	}
	for _, o := range obs {
		if o.Index < 0 || o.Index >= n {
			return fmt.Errorf("%s: observation index %d out of range [0,%d)", name, o.Index, n)
		}
		if math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
			return fmt.Errorf("%s: observation value %g for node %d is not finite", name, o.Value, o.Index)
		}
		if math.Abs(o.Value) > rail {
			return fmt.Errorf("%s: observation value %g exceeds rail %g", name, o.Value, rail)
		}
		if clamped[o.Index] {
			return fmt.Errorf("%s: duplicate observation for node %d", name, o.Index)
		}
		clamped[o.Index] = true
	}
	if x != nil {
		for _, o := range obs {
			x[o.Index] = o.Value
		}
	}
	return nil
}
