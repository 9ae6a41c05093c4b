package engine

import "fmt"

// DeltaBackend is the optional Backend extension for clamp-plan
// delta-compilation. A streaming temporal inference slides its observation
// window one step per tick: the clamp mask shifts by a small symmetric
// difference, every tick's mask is new to the plan cache, and a full
// CompilePlan per tick re-classifies every coupling row from scratch. A
// DeltaBackend instead patches the predecessor pattern's plan,
// reclassifying only the rows the flipped mask bits touch.
//
// The contract mirrors CompilePlan's: the product depends only on WHICH
// nodes are clamped, is immutable, and must be interchangeable with a full
// compile — the engine inserts it into the plan cache under the new
// pattern's key, and the plan-naive-identity invariant applies to patched
// plans exactly as to compiled ones, so patching must be structurally
// lossless. prev is a plan previously produced by this backend (via
// CompilePlan or CompilePlanDelta) for oldClamped; it must not be mutated,
// since it may still be resident under its own key. Returning nil declines
// the delta (mask unchanged, symmetric difference too large, foreign plan
// type) and sends the engine to the full compile.
type DeltaBackend interface {
	Backend
	CompilePlanDelta(prev any, oldClamped, newClamped []bool) any
}

// Stream is a stateful streaming-inference session: a sequence of
// observation windows inferred as consecutive ticks, each warm-started from
// the previous tick's settled state instead of a fresh random init, with
// clamp plans resolved by delta-compilation from the predecessor tick's
// pattern when the backend supports it. Open with Engine.OpenStream, feed
// ticks with Tick, and Close when done to return the scratch state to the
// engine pool. Warm start and plan-delta resolution live only here; the
// Request a tick runs is a plain Planned one.
//
// A Stream is single-threaded: it owns one InferState and each tick's warm
// start is the previous tick's equilibrium. Concurrent sessions use one
// Stream each.
type Stream struct {
	eng *Engine
	st  *InferState

	// Predecessor tick's clamp pattern: the packed plan-cache key (for the
	// LRU lookup that seeds the delta compile) and the unpacked mask (the
	// DeltaBackend argument).
	prevKey     []byte
	prevClamped []bool
	started     bool
}

// OpenStream starts a streaming session on this engine. The session draws
// its scratch state from the engine free-list and must be Closed to return
// it.
func (e *Engine) OpenStream() *Stream {
	return &Stream{eng: e, st: e.getState()}
}

// Engine returns the engine this stream runs on.
func (s *Stream) Engine() *Engine { return s.eng }

// Started reports whether the stream has completed its cold first tick.
func (s *Stream) Started() bool { return s.started }

// Close returns the session's scratch state to the engine pool. Tick after
// Close errors; Close is idempotent.
func (s *Stream) Close() {
	if s.st != nil {
		s.eng.putState(s.st)
		s.st = nil
	}
}

// Tick runs one streaming inference: the session's next observation window,
// usually a small shift of the previous tick's.
//
// The first tick of a session is exactly InferWith — uniform random init,
// full plan resolution. Every later tick differs in two ways:
//
//   - Warm-start: free nodes keep the previous tick's settled voltages as
//     their init (the previous equilibrium is near the new one when the
//     window slid one step), and only the clamped entries are rewritten
//     from the new observations. The RNG is still reseeded per tick, so
//     noisy regimes stay deterministic per seed. A warm-started anneal
//     settles to the same fixed point as a cold one — the
//     warm-start-fixed-point verify invariant — it just starts closer.
//   - Plan delta-resolution: when the new clamp pattern misses the plan
//     cache, the predecessor pattern's resident plan is patched via the
//     backend's CompilePlanDelta instead of fully recompiled, falling back
//     to CompilePlan when the backend declines or the predecessor was
//     evicted. Either way the product lands in the cache under the new
//     pattern's key.
//
// The returned Result aliases the stream's state buffers and is
// overwritten by the next tick; Detach it if it must outlive the tick.
func (s *Stream) Tick(obs []Observation, seed uint64) (*Result, error) {
	if s.st == nil {
		return nil, fmt.Errorf("%s: Tick on a closed stream", s.eng.b.Name())
	}
	st := s.st
	res, err := s.eng.run(st, Request{Obs: obs, Seed: seed}, s)
	if err != nil {
		return nil, err
	}
	n := len(st.X)
	if s.prevKey == nil {
		s.prevKey = make([]byte, maskBytes(n))
		s.prevClamped = make([]bool, n)
	}
	copy(s.prevKey, st.KeyBuf)
	copy(s.prevClamped, st.Clamped)
	if m := s.eng.metrics(); m.enabled() {
		m.streamTicks.Inc()
		if s.started {
			m.streamWarmSteps.Observe(float64(res.Steps))
		} else {
			m.streamColdSteps.Observe(float64(res.Steps))
		}
	}
	s.started = true
	return res, nil
}

// compileDelta resolves a shifted pattern's cache miss: patch the
// predecessor's plan when it is still resident and the backend accepts
// the delta, else compile in full. Either outcome is counted.
func (e *Engine) compileDelta(db DeltaBackend, prevPl any, resident bool, prevClamped, clamped []bool, m *engineObs) any {
	if resident {
		if pl := db.CompilePlanDelta(prevPl, prevClamped, clamped); pl != nil {
			e.planDeltaHits.Add(1)
			m.planDeltaHits.Inc()
			return pl
		}
	}
	e.planDeltaFallbacks.Add(1)
	m.planDeltaFallbacks.Inc()
	return e.b.CompilePlan(clamped)
}

// PlanDeltaStats reports the cumulative plan delta-compilation counts:
// hits patched a predecessor plan, fallbacks resolved a shifted pattern
// with a full compile (backend declined, no DeltaBackend predecessor plan
// resident). Cache hits on a shifted pattern move neither counter.
func (e *Engine) PlanDeltaStats() (hits, fallbacks uint64) {
	return e.planDeltaHits.Load(), e.planDeltaFallbacks.Load()
}
