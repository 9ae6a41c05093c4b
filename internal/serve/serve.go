package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsgl"
	"dsgl/internal/engine"
	"dsgl/internal/obs"
	"dsgl/internal/obs/obshttp"
)

// Config tunes the serving layer. The zero value is a working default for
// every field.
type Config struct {
	// BatchWindow is the coalescing window: the first request of a batch
	// group waits at most this long for other requests to the same model,
	// whatever they clamp, before annealing. 0 selects 2ms; negative
	// disables batching (every request runs solo, still through admission
	// and the queue bound).
	BatchWindow time.Duration
	// MaxBatch flushes a group as soon as it holds this many requests.
	// 0 selects 32.
	MaxBatch int
	// MaxQueue bounds the total requests pending across all batch groups;
	// beyond it requests are shed with 503. 0 selects 1024.
	MaxQueue int
	// RatePerSec is the per-tenant token-bucket refill rate; requests
	// beyond it are shed with 429. 0 disables rate limiting.
	RatePerSec float64
	// Burst is the per-tenant bucket capacity; 0 selects max(1, RatePerSec).
	Burst float64
	// Workers sizes the engine worker pool a coalesced batch fans out
	// over. 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// DrainTimeout bounds Drain's wait for in-flight requests. 0 selects
	// 10s.
	DrainTimeout time.Duration
	// StreamTTL evicts /v1/stream sessions idle longer than this (sweep is
	// lazy, on stream traffic). 0 selects 60s.
	StreamTTL time.Duration
	// MaxStreams bounds concurrently open /v1/stream sessions; beyond it
	// (after expiring idle ones) opens are refused with 503. 0 selects 256.
	MaxStreams int
}

func (c *Config) fillDefaults() {
	if c.BatchWindow == 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.StreamTTL <= 0 {
		c.StreamTTL = 60 * time.Second
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 256
	}
}

// Server is the HTTP/JSON inference service. Construct with New, mount
// Handler (or Start a listener), and Drain on shutdown.
type Server struct {
	models *Registry
	cfg    Config
	m      *serveObs

	limiter *tenantLimiter
	mux     *http.ServeMux

	// Drain protocol: draining flips first (new inference requests are
	// refused with 503 while /metrics and /healthz stay served), then
	// queued batches are force-flushed, then inflight is awaited, and only
	// then does the HTTP server itself close. beginRequest's Add runs
	// under drainMu.RLock with a draining check, so no Add can race
	// Drain's Wait.
	drainMu  sync.RWMutex
	draining atomic.Bool
	inflight sync.WaitGroup

	// Batch groups (batch.go), one per registered model entry with pending
	// requests. queued is the total pending across groups, bounded by
	// cfg.MaxQueue (guarded by groupMu).
	groupMu sync.Mutex
	groups  map[*ModelEntry]*batchGroup
	queued  int

	// Streaming sessions (stream.go), keyed by session id; streamSeq mints
	// ids. Guarded by streamMu.
	streamMu  sync.Mutex
	streams   map[string]*streamSession
	streamSeq uint64

	httpSrv *http.Server
}

// New builds a Server over the registry's models. Observability binds to
// the current default obs registry (enable metrics before constructing).
func New(models *Registry, cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		models:  models,
		cfg:     cfg,
		m:       newServeObs(obs.Default()),
		limiter: newTenantLimiter(cfg.RatePerSec, cfg.Burst),
		groups:  make(map[*ModelEntry]*batchGroup),
		streams: make(map[string]*streamSession),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", s.handleInfer)
	mux.HandleFunc("/v1/stream", s.handleStream)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/evict", s.handleEvict)
	mux.HandleFunc("/v1/example", s.handleExample)
	mux.HandleFunc("/healthz", s.handleHealthz)
	// Observability endpoints ride on the same mux; they keep answering
	// through the drain (only the final listener close stops them).
	obsh := obshttp.Handler(obs.Default())
	mux.Handle("/metrics", obsh)
	mux.Handle("/metricsz", obsh)
	mux.Handle("/debug/pprof/", obsh)
	s.mux = mux
	return s
}

// Handler returns the server's HTTP handler (inference API + obs
// endpoints). Useful for tests and embedding; daemons use Start.
func (s *Server) Handler() http.Handler { return s.mux }

// QueueDepth reports the requests currently pending across batch groups.
func (s *Server) QueueDepth() int {
	s.groupMu.Lock()
	defer s.groupMu.Unlock()
	return s.queued
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Start listens on addr and serves in a background goroutine, returning
// the bound address (useful with ":0").
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.httpSrv = &http.Server{Handler: s.mux}
	go func() { _ = s.httpSrv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Drain gracefully shuts the server down: stop admitting inference
// requests (503), force-flush every queued batch, wait for in-flight
// requests to finish (bounded by Config.DrainTimeout), then close the
// HTTP server — observability endpoints included, which therefore outlive
// the last inference response. Returns an error only when in-flight work
// failed to finish inside the timeout; requests admitted before Drain are
// never dropped.
func (s *Server) Drain() error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()

	// Flush queued batches now rather than letting their windows expire —
	// the in-flight handlers parked on those batches unblock immediately.
	s.flushAll()

	// Close every streaming session: the drain gate already refuses new
	// stream ticks, and endStreams serializes on each session's mutex, so
	// in-flight ticks finish before their state returns to the pool.
	s.endStreams(func(*streamSession) bool { return true })

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		drainErr = fmt.Errorf("serve: drain timed out after %v with requests still in flight", s.cfg.DrainTimeout)
	}
	if s.httpSrv != nil {
		_ = s.httpSrv.Close()
	}
	return drainErr
}

// beginRequest registers one in-flight request unless the server is
// draining. The draining check and the WaitGroup Add share drainMu so
// Drain's Wait can never race a late Add.
func (s *Server) beginRequest() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return false
	}
	s.inflight.Add(1)
	s.m.inflight.Add(1)
	return true
}

func (s *Server) endRequest() {
	s.m.inflight.Add(-1)
	s.inflight.Done()
}

// Observation is the explicit-clamp form of a request: clamp node Index to
// Value.
type Observation struct {
	Index int     `json:"index"`
	Value float64 `json:"value"`
}

// InferRequest is the POST /v1/infer body. Exactly one of Window and
// Observations must be set.
type InferRequest struct {
	// Model names the registry entry to serve from.
	Model string `json:"model"`
	// Window is the full window vector in the model dataset's layout;
	// entries the dataset marks observed are clamped, the rest predicted.
	Window []float64 `json:"window,omitempty"`
	// Observations is the explicit clamp list (arbitrary patterns; requests
	// to one model coalesce into one batch whatever they clamp).
	Observations []Observation `json:"observations,omitempty"`
	// Seed is the anneal seed; omitted selects the model's base seed.
	// Identical (model, clamps, seed) requests produce bit-identical
	// responses, batched or solo.
	Seed *uint64 `json:"seed,omitempty"`
	// Tenant attributes the request for rate limiting; empty is the
	// anonymous shared tenant.
	Tenant string `json:"tenant,omitempty"`
}

// InferResponse is the POST /v1/infer reply.
type InferResponse struct {
	Model string `json:"model"`
	// Indices are the predicted (free) node indices; Values their annealed
	// voltages, aligned.
	Indices []int     `json:"indices"`
	Values  []float64 `json:"values"`
	// LatencyUs is the simulated anneal latency in microseconds.
	LatencyUs float64 `json:"latency_us"`
	Settled   bool    `json:"settled"`
	// Seed is the anneal seed actually used (echoed for reproducibility).
	Seed uint64 `json:"seed"`
	// BatchSize is how many requests shared this request's engine call
	// (1 = solo).
	BatchSize int `json:"batch_size"`
}

// maxRequestBody bounds a decoded request body (a 1M-node window of JSON
// floats fits comfortably).
const maxRequestBody = 64 << 20

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req InferRequest
	if !s.admit(w, r, &req) {
		return
	}
	defer s.endRequest()
	entry, ok := s.lookupModel(w, req.Model)
	if !ok || !s.allow(w, req.Tenant, start) {
		return
	}
	eng := entry.Model.Engine()
	obsList, err := clamps(entry, req.Window, req.Observations)
	if err == nil {
		// The engine validator (range, rails, duplicates) runs up front,
		// so a bad request can never poison the batch it would have
		// ridden in; this also warms the request's clamp plan.
		err = eng.EnsurePlan(obsList)
	}
	if err != nil {
		s.m.badRequest.Inc()
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	seed := eng.BaseSeed()
	if req.Seed != nil {
		seed = *req.Seed
	}

	out := s.enqueue(entry, obsList, seed)
	if out.err != nil {
		if errors.Is(out.err, errQueueFull) {
			s.m.queueFull.Inc()
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "queue full")
			return
		}
		httpError(w, http.StatusInternalServerError, "inference failed: %v", out.err)
		return
	}

	resp := &InferResponse{
		Model:     entry.Name,
		LatencyUs: out.res.LatencyNs / 1000,
		Settled:   out.res.Settled,
		Seed:      seed,
		BatchSize: out.batchSize,
	}
	resp.Indices, resp.Values = freeValues(obsList, out.res.Voltage)
	s.m.admitted.Inc()
	s.m.requestLatency(entry.Name).Observe(time.Since(start).Seconds())
	writeJSON(w, http.StatusOK, resp)
}

// admit is the POST gate of both inference handlers: it refuses other
// methods (405) and a draining server (503), registers the request in
// flight and decodes the JSON body into req (400). It reports whether the
// request was admitted; if so the caller must endRequest, and if not the
// reply is written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, req any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	if !s.beginRequest() {
		s.m.draining.Inc()
		httpError(w, http.StatusServiceUnavailable, "draining")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(req); err != nil {
		s.endRequest()
		s.m.badRequest.Inc()
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// lookupModel resolves a request's model, writing the 404 when the
// registry does not hold it.
func (s *Server) lookupModel(w http.ResponseWriter, name string) (*ModelEntry, bool) {
	entry, ok := s.models.Get(name)
	if !ok {
		s.m.badRequest.Inc()
		httpError(w, http.StatusNotFound, "unknown model %q (loaded: %s)", name, strings.Join(s.models.Names(), ", "))
	}
	return entry, ok
}

// allow charges the tenant's token bucket, writing the 429 when the
// request is over the rate limit.
func (s *Server) allow(w http.ResponseWriter, tenant string, now time.Time) bool {
	if s.limiter.allow(tenant, now) {
		return true
	}
	s.m.rateLimited.Inc()
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusTooManyRequests, "tenant %q over rate limit", tenant)
	return false
}

// clamps turns a request's window or explicit observation list, exactly
// one of which must be set, into the engine clamp list. The engine
// validates the list: EnsurePlan on /v1/infer, the tick on /v1/stream.
func clamps(entry *ModelEntry, window []float64, explicit []Observation) ([]engine.Observation, error) {
	if (len(window) > 0) == (len(explicit) > 0) {
		return nil, errors.New("serve: exactly one of window and observations must be set")
	}
	if len(window) > 0 {
		return entry.Model.WindowObservations(dsgl.Window{Full: window})
	}
	obsList := make([]engine.Observation, len(explicit))
	for i, o := range explicit {
		obsList[i] = engine.Observation{Index: o.Index, Value: o.Value}
	}
	return obsList, nil
}

// freeValues lists the nodes a validated clamp list leaves free, in
// ascending order, with their annealed voltages: a reply's aligned Indices
// and Values.
func freeValues(obsList []engine.Observation, voltage []float64) ([]int, []float64) {
	clamped := make([]bool, len(voltage))
	for _, o := range obsList {
		clamped[o.Index] = true
	}
	free := len(voltage) - len(obsList)
	indices, values := make([]int, 0, free), make([]float64, 0, free)
	for i, c := range clamped {
		if !c {
			indices = append(indices, i)
			values = append(values, voltage[i])
		}
	}
	return indices, values
}

// modelInfo is one entry of the GET /v1/models listing.
type modelInfo struct {
	Name     string `json:"name"`
	Backend  string `json:"backend"`
	Dim      int    `json:"dim"`
	PlanHits uint64 `json:"plan_cache_hits"`
	PlanMiss uint64 `json:"plan_cache_misses"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	names := s.models.Names()
	out := make([]modelInfo, 0, len(names))
	for _, name := range names {
		e, ok := s.models.Get(name)
		if !ok {
			continue
		}
		hits, misses := e.Model.PlanCacheStats()
		out = append(out, modelInfo{Name: e.Name, Backend: e.Backend, Dim: e.Dim, PlanHits: hits, PlanMiss: misses})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	name := r.URL.Query().Get("model")
	if name == "" {
		httpError(w, http.StatusBadRequest, "missing ?model=")
		return
	}
	if !s.models.Evict(name) {
		httpError(w, http.StatusNotFound, "unknown model %q", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"evicted": name})
}

// handleExample returns a ready-to-POST InferRequest for the named model,
// built from the first window of its dataset's test split — the curl-able
// entry point of the README quickstart and the CI smoke.
func (s *Server) handleExample(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("model")
	if name == "" {
		if names := s.models.Names(); len(names) > 0 {
			name = names[0]
		}
	}
	entry, ok := s.models.Get(name)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown model %q", name)
		return
	}
	_, test := entry.Model.Dataset.Split()
	if len(test) == 0 {
		httpError(w, http.StatusInternalServerError, "model %q has no test windows", name)
		return
	}
	writeJSON(w, http.StatusOK, &InferRequest{Model: name, Window: test[0].Full})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "ok (%d models)\n", s.models.Len())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
