package dsgl

import (
	"fmt"

	"dsgl/internal/datasets"
	"dsgl/internal/engine"
)

// StreamSession is streaming temporal inference over a model: a sequence of
// observation windows predicted as consecutive ticks, each warm-started
// from the previous tick's settled node state (see engine.Stream), with
// its clamp plan resolved through the model engine's plan cache like any
// other inference. A warm-started tick settles to the same fixed point
// a cold inference would — the warm-start-fixed-point verify invariant — it
// just starts closer to it, so consecutive ticks of a slowly varying series
// settle in fewer steps.
//
// Tick t anneals with seed BaseSeed + t, mirroring the batch convention
// (window i gets BaseSeed + i), so a session's predictions are
// deterministic in (model seed, tick order). Sessions are not safe for
// concurrent use; open one session per stream. Close releases the
// session's inference state back to the engine pool.
type StreamSession struct {
	m    *Model
	s    *engine.Stream
	tick uint64
}

// OpenStream starts a streaming inference session on the model.
func (m *Model) OpenStream() *StreamSession {
	return &StreamSession{m: m, s: m.Engine().OpenStream()}
}

// StreamTick is the outcome of one streaming inference tick.
type StreamTick struct {
	Prediction
	// Steps is the integration steps the tick took to settle — the metric
	// warm starting improves. Settled mirrors the engine result.
	Steps   int
	Settled bool
	// Warm reports whether this tick reused the previous tick's settled
	// state (false on a session's first tick).
	Warm bool
	// Seed is the anneal seed the tick ran with (BaseSeed + tick index).
	Seed uint64
}

// Next predicts one window as the session's next tick. The window is
// validated exactly as Predict validates it; its observed entries are
// clamped and the unknowns annealed from the previous tick's equilibrium.
func (ss *StreamSession) Next(w datasets.Window) (*StreamTick, error) {
	if ss.s == nil {
		return nil, fmt.Errorf("dsgl: Next on a closed stream session")
	}
	obs, err := ss.m.windowObservations(w)
	if err != nil {
		return nil, err
	}
	warm := ss.s.Started()
	res, seed, err := ss.NextObservations(obs)
	if err != nil {
		return nil, err
	}
	return &StreamTick{
		Prediction: *ss.m.predictionFrom(w, res),
		Steps:      res.Steps,
		Settled:    res.Settled,
		Warm:       warm,
		Seed:       seed,
	}, nil
}

// NextObservations is Next for callers that build their own clamp lists
// (the serving layer's /v1/stream endpoint). The returned Result aliases
// session state and is overwritten by the next tick; Detach it if it must
// outlive the tick.
func (ss *StreamSession) NextObservations(obs []engine.Observation) (*engine.Result, uint64, error) {
	if ss.s == nil {
		return nil, 0, fmt.Errorf("dsgl: Next on a closed stream session")
	}
	seed := ss.m.Engine().BaseSeed() + ss.tick
	res, err := ss.s.Tick(obs, seed)
	if err != nil {
		return nil, 0, err
	}
	ss.tick++
	return res, seed, nil
}

// Ticks is the number of completed ticks.
func (ss *StreamSession) Ticks() uint64 { return ss.tick }

// Close releases the session's inference state. Idempotent; Next after
// Close errors.
func (ss *StreamSession) Close() {
	if ss.s != nil {
		ss.s.Close()
		ss.s = nil
	}
}
