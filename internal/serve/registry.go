// Package serve is the long-running inference service around the DS-GL
// engine: a model registry (load/evict trained models or snapshots, plan
// caches warmed at load time), request admission with per-tenant token-
// bucket rate limiting and a bounded queue, cross-request dynamic batching
// into the engine's seeded batch entry point, and graceful drain. The HTTP
// surface (cmd/dsgld) mounts the internal/obs/obshttp observability
// endpoints alongside the inference API.
//
// Determinism contract: a request annealed inside a coalesced batch is
// bit-identical to the same request served solo. The batcher groups
// requests by registered model entry, whatever they clamp, and hands the
// engine one seed per request (Engine.RunBatch), which resolves each
// request's own clamp plan and contributes nothing per-window beyond that
// seed — so batching is purely a throughput decision, never a results
// decision (pinned by TestBatchingDeterminism).
package serve

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"dsgl"
)

// ModelEntry is one resident model in the registry.
type ModelEntry struct {
	// Name is the registry key requests address the model by.
	Name string
	// Model is the trained model. Its engine is safe for concurrent use;
	// the serving layer never mutates the model after registration.
	Model *dsgl.Model
	// Backend names the inference backend ("scalable", "dense").
	Backend string
	// Dim is the window-vector dimension requests must match.
	Dim int
}

// Registry is the named-model store of the serving layer. Registration
// warms each model's clamp-plan cache via EnsurePlan so the first request
// against a model never pays a plan compile; eviction drops the model (and
// its plan cache) for the garbage collector. Safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*ModelEntry
}

// NewRegistry returns an empty model registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*ModelEntry)}
}

// Register installs a trained model under name, warming its plan cache for
// the dataset's observation pattern before the model becomes visible to
// requests. Registering an existing name replaces the previous model
// (load-then-swap is how a running dsgld rolls a model forward).
func (r *Registry) Register(name string, m *dsgl.Model) (*ModelEntry, error) {
	if name == "" {
		return nil, errors.New("serve: model name must be non-empty")
	}
	if m == nil {
		return nil, fmt.Errorf("serve: model %q is nil", name)
	}
	// Warm the plan cache before publication: every request sharing the
	// dataset's clamp pattern then starts with a cache hit, which is the
	// per-model warmup PlanCacheStats asserts in the registry tests.
	if err := m.EnsurePlan(); err != nil {
		return nil, fmt.Errorf("serve: warming plan cache for %q: %w", name, err)
	}
	e := &ModelEntry{
		Name:    name,
		Model:   m,
		Backend: m.Opts.Backend,
		Dim:     m.Tuned.Dim(),
	}
	r.mu.Lock()
	r.entries[name] = e
	r.mu.Unlock()
	return e, nil
}

// LoadSnapshot reads a model snapshot (format v1-v4) from path and
// registers it under name. ds must be the dataset the snapshot was trained
// on — the same contract as dsgl.Load.
func (r *Registry) LoadSnapshot(name, path string, ds *dsgl.Dataset) (*ModelEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot %q: %w", name, err)
	}
	defer f.Close()
	m, err := dsgl.Load(f, ds)
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot %q: %w", name, err)
	}
	return r.Register(name, m)
}

// Evict removes the named model, reporting whether it was resident.
func (r *Registry) Evict(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; !ok {
		return false
	}
	delete(r.entries, name)
	return true
}

// Get returns the named model entry.
func (r *Registry) Get(name string) (*ModelEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Names lists the resident model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len reports how many models are resident.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}
