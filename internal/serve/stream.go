package serve

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"dsgl"
)

// Streaming temporal inference over HTTP: POST /v1/stream multiplexes
// session opens, warm ticks, and closes through one endpoint. The first
// request (no session id) opens a session on a model and serves its cold
// first tick; the returned session id keys every later tick, each of which
// warm-starts from the previous tick's settled state (see
// dsgl.StreamSession).
//
// Sessions are server-side state, so they are bounded two ways: a hard cap
// (Config.MaxStreams, refused with 503 when full) and an idle TTL
// (Config.StreamTTL, swept lazily on stream traffic). Drain closes every
// session after the drain gate stops admitting ticks, so session state
// always returns to the engine pool before the process exits.

// streamSession is one live /v1/stream session. mu serializes ticks (and
// the final Close) on the underlying dsgl session, which is not safe for
// concurrent use; lastUsed drives TTL eviction and is guarded by the
// server's streamMu.
type streamSession struct {
	id    string
	entry *ModelEntry

	mu   sync.Mutex
	sess *dsgl.StreamSession

	lastUsed time.Time
}

// StreamRequest is the POST /v1/stream body. Omit Session to open a new
// session on Model (the request's window doubles as the cold first tick);
// set Session to advance an existing one. Close tears the session down
// instead of ticking.
type StreamRequest struct {
	// Model names the registry entry; required on open, optional (but
	// checked against the session's model when set) on later ticks.
	Model string `json:"model,omitempty"`
	// Session is the id a previous open returned.
	Session string `json:"session,omitempty"`
	// Window / Observations describe the tick's clamps, exactly as in
	// InferRequest: one of the two must be set on any ticking request.
	Window       []float64     `json:"window,omitempty"`
	Observations []Observation `json:"observations,omitempty"`
	// Close ends the session; no tick is taken and no clamps are needed.
	Close bool `json:"close,omitempty"`
	// Tenant attributes the request for rate limiting.
	Tenant string `json:"tenant,omitempty"`
}

// StreamResponse is the POST /v1/stream reply.
type StreamResponse struct {
	Session string `json:"session"`
	Model   string `json:"model"`
	// Tick is the 0-based index of the tick this response carries (on a
	// close, the number of ticks the session served).
	Tick uint64 `json:"tick"`
	// Indices are the predicted (free) node indices; Values their annealed
	// voltages, aligned. Empty on a close.
	Indices []int     `json:"indices,omitempty"`
	Values  []float64 `json:"values,omitempty"`
	// LatencyUs is the simulated anneal latency in microseconds; Steps the
	// integration steps the tick took to settle — the number warm starting
	// drives down.
	LatencyUs float64 `json:"latency_us,omitempty"`
	Steps     int     `json:"steps,omitempty"`
	Settled   bool    `json:"settled,omitempty"`
	// Warm reports whether the tick reused the previous tick's settled
	// state (false on a session's first tick).
	Warm bool `json:"warm,omitempty"`
	// Seed is the anneal seed the tick ran with (model base seed + tick).
	Seed uint64 `json:"seed,omitempty"`
	// Closed acknowledges a close request.
	Closed bool `json:"closed,omitempty"`
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req StreamRequest
	if !s.admit(w, r, &req) {
		return
	}
	defer s.endRequest()

	// Lazy TTL sweep: stream traffic itself retires idle sessions.
	idle := s.endStreams(func(ss *streamSession) bool { return start.Sub(ss.lastUsed) > s.cfg.StreamTTL })
	s.m.streamEvicted.Add(uint64(len(idle)))

	if req.Close {
		s.closeStream(w, &req)
		return
	}
	if !s.allow(w, req.Tenant, start) {
		return
	}

	var ss *streamSession
	if req.Session == "" {
		ss = s.openStream(w, &req, start)
	} else {
		ss = s.lookupStream(w, &req, start)
	}
	if ss == nil {
		return // openStream/lookupStream already wrote the error
	}
	resp, err := ss.tick(&req)
	if err != nil {
		if req.Session == "" {
			// The client never learned the id, so a failed open must not
			// leak a session that only the TTL would reap.
			s.endStreams(func(x *streamSession) bool { return x == ss })
		}
		s.m.badRequest.Inc()
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.m.streamTicks.Inc()
	s.m.admitted.Inc()
	s.m.requestLatency(ss.entry.Name).Observe(time.Since(start).Seconds())
	writeJSON(w, http.StatusOK, resp)
}

// tick runs the request's clamps as the session's next tick, under the
// session mutex, and builds the reply. The tick validates the clamps; its
// result aliases session state that the next tick overwrites, so the
// reply's values are copied out before the mutex is released.
func (ss *streamSession) tick(req *StreamRequest) (*StreamResponse, error) {
	obsList, err := clamps(ss.entry, req.Window, req.Observations)
	if err != nil {
		return nil, err
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	tick := ss.sess.Ticks()
	res, seed, err := ss.sess.NextObservations(obsList)
	if err != nil {
		return nil, err
	}
	resp := &StreamResponse{
		Session:   ss.id,
		Model:     ss.entry.Name,
		Tick:      tick,
		LatencyUs: res.LatencyNs / 1000,
		Steps:     res.Steps,
		Settled:   res.Settled,
		Warm:      tick > 0,
		Seed:      seed,
	}
	resp.Indices, resp.Values = freeValues(obsList, res.Voltage)
	return resp, nil
}

// openStream admits and registers a new session, writing the HTTP error
// (and returning nil) when the model is unknown or the session cap is hit.
func (s *Server) openStream(w http.ResponseWriter, req *StreamRequest, now time.Time) *streamSession {
	entry, ok := s.lookupModel(w, req.Model)
	if !ok {
		return nil
	}
	s.streamMu.Lock()
	if len(s.streams) >= s.cfg.MaxStreams {
		s.streamMu.Unlock()
		s.m.queueFull.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "stream session limit (%d) reached", s.cfg.MaxStreams)
		return nil
	}
	s.streamSeq++
	ss := &streamSession{
		id:       fmt.Sprintf("st-%d", s.streamSeq),
		entry:    entry,
		sess:     entry.Model.OpenStream(),
		lastUsed: now,
	}
	s.streams[ss.id] = ss
	s.streamMu.Unlock()
	s.m.streamOpens.Inc()
	s.m.streamSessions.Add(1)
	return ss
}

// lookupStream resolves an existing session and touches its idle clock,
// writing the HTTP error (and returning nil) on an unknown id or a model
// mismatch.
func (s *Server) lookupStream(w http.ResponseWriter, req *StreamRequest, now time.Time) *streamSession {
	s.streamMu.Lock()
	ss, ok := s.streams[req.Session]
	if ok {
		ss.lastUsed = now
	}
	s.streamMu.Unlock()
	if !ok {
		s.m.badRequest.Inc()
		httpError(w, http.StatusNotFound, "unknown or expired stream session %q", req.Session)
		return nil
	}
	if req.Model != "" && req.Model != ss.entry.Name {
		s.m.badRequest.Inc()
		httpError(w, http.StatusBadRequest, "session %s belongs to model %q, not %q", ss.id, ss.entry.Name, req.Model)
		return nil
	}
	return ss
}

// closeStream handles a Close request: the session's inference state goes
// back to the engine pool and the id stops resolving.
func (s *Server) closeStream(w http.ResponseWriter, req *StreamRequest) {
	if req.Session == "" {
		s.m.badRequest.Inc()
		httpError(w, http.StatusBadRequest, "close requires a session id")
		return
	}
	ended := s.endStreams(func(ss *streamSession) bool { return ss.id == req.Session })
	if len(ended) == 0 {
		s.m.badRequest.Inc()
		httpError(w, http.StatusNotFound, "unknown or expired stream session %q", req.Session)
		return
	}
	ss := ended[0]
	writeJSON(w, http.StatusOK, &StreamResponse{Session: ss.id, Model: ss.entry.Name, Tick: ss.sess.Ticks(), Closed: true})
}

// endStreams is the one teardown of stream sessions, shared by Close
// requests, failed opens, the TTL sweep and Drain: it unregisters every
// session end selects under streamMu, then closes each under its own
// mutex, so a tick that resolved the session before it was unregistered
// finishes before the state returns to the engine pool. It returns the
// sessions it ended.
func (s *Server) endStreams(end func(*streamSession) bool) []*streamSession {
	s.streamMu.Lock()
	var ended []*streamSession
	for id, ss := range s.streams {
		if end(ss) {
			delete(s.streams, id)
			ended = append(ended, ss)
		}
	}
	s.streamMu.Unlock()
	for _, ss := range ended {
		ss.mu.Lock()
		ss.sess.Close()
		ss.mu.Unlock()
		s.m.streamSessions.Add(-1)
	}
	return ended
}

// StreamCount reports the streaming sessions currently open.
func (s *Server) StreamCount() int {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	return len(s.streams)
}
