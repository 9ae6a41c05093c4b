package engine

import "fmt"

// Stream is a stateful streaming-inference session: a sequence of
// observation windows inferred as consecutive ticks, each warm-started from
// the previous tick's settled state instead of a fresh random init. Open
// with Engine.OpenStream, feed ticks with Tick, and Close when done to
// return the scratch state to the engine pool. Warm start lives only here;
// the Request a tick runs is a plain Planned one, so its clamp plan
// resolves through the engine's plan cache like any other inference.
//
// A Stream is single-threaded: it owns one InferState and each tick's warm
// start is the previous tick's equilibrium. Concurrent sessions use one
// Stream each.
type Stream struct {
	eng     *Engine
	st      *InferState
	started bool
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
// The first tick of a session is exactly InferWith — uniform random init.
// Every later tick is warm-started: free nodes keep the previous tick's
// settled voltages as their init (the previous equilibrium is near the new
// one when the window slid one step), and only the clamped entries are
// rewritten from the new observations. The RNG is still reseeded per tick,
// so noisy regimes stay deterministic per seed. A warm-started anneal
// settles to the same fixed point as a cold one — the
// warm-start-fixed-point verify invariant — it just starts closer.
//
// The returned Result aliases the stream's state buffers and is
// overwritten by the next tick; Detach it if it must outlive the tick.
func (s *Stream) Tick(obs []Observation, seed uint64) (*Result, error) {
	if s.st == nil {
		return nil, fmt.Errorf("%s: Tick on a closed stream", s.eng.b.Name())
	}
	res, err := s.eng.run(s.st, Request{Obs: obs, Seed: seed}, s.started)
	if err != nil {
		return nil, err
	}
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

// PlanDeltaStats reports 0, 0: a shifted stream pattern's plan is split
// like any other cache miss, and PlanCacheStats counts it.
//
// Deprecated: the plan patcher it counted was removed. The method remains
// only while the repo benchmark calls it (ROADMAP item 1).
func (e *Engine) PlanDeltaStats() (hits, fallbacks uint64) { return 0, 0 }
