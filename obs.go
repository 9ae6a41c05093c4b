package dsgl

import (
	"io"
	"time"

	"dsgl/internal/obs"
)

// Observability surface of the top-level package. The runtime metrics
// layer (internal/obs) is disabled by default: the engine, trainer, and
// worker pool bind nil no-op instruments and the anneal hot path stays
// allocation-free with zero recording overhead. EnableMetrics installs
// the process-wide registry; from then on every inference, training
// epoch, and pool run records into it, and MetricsSnapshot /
// WriteMetrics expose the result. The cmd/dsgl -obs-addr flag serves the
// same registry over HTTP (Prometheus text on /metrics, JSON on
// /metricsz, pprof under /debug/pprof/).
//
// Instrument inventory and naming convention: see DESIGN.md
// "Observability".

// MetricSnapshot is one instrument's state in a MetricsSnapshot: name,
// kind, labels, and the kind-specific values (count, gauge value,
// histogram buckets, summary quantiles). JSON-safe: non-finite values
// are omitted.
type MetricSnapshot = obs.MetricSnapshot

// EnableMetrics installs the process-wide metrics registry (idempotent;
// safe from multiple goroutines). Instrumented packages pick it up on
// their next recording opportunity — no restart or re-plumbing needed.
func EnableMetrics() { obs.Enable() }

// DisableMetrics removes the process-wide metrics registry, returning
// the hot paths to their zero-overhead no-op state. Counters recorded so
// far are dropped with the registry.
func DisableMetrics() { obs.Disable() }

// MetricsEnabled reports whether the process-wide registry is installed.
func MetricsEnabled() bool { return obs.Default() != nil }

// MetricsSnapshot returns the state of every registered instrument in
// registration order, or nil when metrics are disabled. Safe to call
// concurrently with ongoing runs; each instrument is read atomically.
func MetricsSnapshot() []MetricSnapshot { return obs.Default().Snapshot() }

// WriteMetrics writes every registered instrument in the Prometheus text
// exposition format. A no-op (writing nothing) when metrics are
// disabled.
func WriteMetrics(w io.Writer) error { return obs.Default().WritePrometheus(w) }

// Training stages timed into dsgl_train_stage_seconds{stage}, in pipeline
// order. moments is the one pass that accumulates the ridge moments
// (taken in two pieces around lambda_grid, recorded as one sample); ridge
// is the dense closed-form fit plus any gradient refinement; masked_ridge
// is the masked refit plus any fine-tune; build is scalable.Build, or
// dspu.New on the dense backend.
const (
	stageMoments = iota
	stageLambdaGrid
	stageRidge
	stagePrune
	stageLouvain
	stageRedistribute
	stageMask
	stageMaskedRidge
	stageBuild
	numStages
)

var stageNames = [numStages]string{"moments", "lambda_grid", "ridge", "prune", "louvain", "redistribute", "mask", "masked_ridge", "build"}

// stageClock attributes one Train or TrainDense run's wall time to its
// stages. Each mark charges the time since the previous mark to a stage;
// record then observes every charged stage once. With metrics disabled
// the clock is inert: it reads no time and records nothing.
type stageClock struct {
	reg     *obs.Registry
	last    time.Time
	spent   [numStages]time.Duration
	charged [numStages]bool
}

func newStageClock() stageClock {
	r := obs.Default()
	if r == nil {
		return stageClock{}
	}
	return stageClock{reg: r, last: time.Now()}
}

// mark charges the time since the previous mark to stage.
func (c *stageClock) mark(stage int) {
	if c.reg == nil {
		return
	}
	now := time.Now()
	c.spent[stage] += now.Sub(c.last)
	c.charged[stage] = true
	c.last = now
}

// record observes one sample per charged stage.
func (c *stageClock) record() {
	if c.reg == nil {
		return
	}
	for s, d := range c.spent {
		if c.charged[s] {
			c.reg.Histogram("dsgl_train_stage_seconds", "wall time of one training stage (moments, lambda_grid, ridge, prune, louvain, redistribute, mask, masked_ridge, build)",
				obs.L("stage", stageNames[s])).Observe(d.Seconds())
		}
	}
}
