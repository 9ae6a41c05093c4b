package engine

import (
	"fmt"

	"dsgl/internal/mat"
)

// Stream is a stateful streaming-inference session: a sequence of
// observation windows inferred as consecutive ticks, each warm-started from
// the previous tick's settled state instead of a fresh random init, with
// clamp plans patched from the predecessor tick's. Open with
// Engine.OpenStream, feed ticks with Tick, and Close when done to return
// the scratch state to the engine pool. Warm start and plan-delta
// resolution live only here; the Request a tick runs is a plain Planned
// one.
//
// A Stream is single-threaded: it owns one InferState and each tick's warm
// start is the previous tick's equilibrium. Concurrent sessions use one
// Stream each.
type Stream struct {
	eng *Engine
	st  *InferState

	// Predecessor tick's clamp pattern: the packed plan-cache key (for the
	// LRU lookup that seeds the delta compile) and the unpacked mask (the
	// Patch argument).
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
//     cache, the predecessor pattern's resident plan is patched
//     (mat.ClampSplit.Patch) instead of split from scratch, falling back
//     to a full Split when Patch declines or the predecessor was evicted.
//     Either way the product lands in the cache under the new pattern's
//     key.
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

// compileDelta resolves a shifted pattern's cache miss: patch the plan of
// the predecessor pattern prevKey when it is still resident and Patch
// accepts the delta, else split in full. Either outcome is counted.
func (e *Engine) compileDelta(prevKey []byte, prevClamped, clamped []bool, m *engineObs) *mat.ClampSplit {
	if prev, ok := e.plans.peek(prevKey); ok {
		if pl := prev.Patch(e.cpl, prevClamped, clamped); pl != nil {
			e.planDeltaHits.Add(1)
			m.planDeltaHits.Inc()
			return pl
		}
	}
	e.planDeltaFallbacks.Add(1)
	m.planDeltaFallbacks.Inc()
	return e.cpl.Split(clamped)
}

// PlanDeltaStats reports the cumulative plan delta-compilation counts:
// hits patched a predecessor plan, fallbacks resolved a shifted pattern
// with a full split (Patch declined, or the predecessor plan was no longer
// resident). Cache hits on a shifted pattern move neither counter.
func (e *Engine) PlanDeltaStats() (hits, fallbacks uint64) {
	return e.planDeltaHits.Load(), e.planDeltaFallbacks.Load()
}
