package serve

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"dsgl/internal/engine"
	"dsgl/internal/rng"
)

// LoadConfig drives RunLoad, the synthetic open-loop load generator behind
// `make serve-bench` and `dsgld -loadtest`.
type LoadConfig struct {
	// Model names the registry entry to load.
	Model string
	// QPS is the mean arrival rate. 0 selects 200.
	QPS float64
	// Duration bounds the generation window. 0 selects 2s.
	Duration time.Duration
	// Alpha is the Pareto tail index of the inter-arrival distribution;
	// smaller is heavier-tailed (more bursty). Must exceed 1 for the mean
	// to exist. 0 selects 1.5, a classic heavy-tail exponent.
	Alpha float64
	// Seed makes the arrival process and per-request seeds reproducible.
	Seed uint64
	// Tenants cycles requests across this many synthetic tenants. 0
	// selects 1.
	Tenants int
}

func (c *LoadConfig) fillDefaults() {
	if c.QPS <= 0 {
		c.QPS = 200
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Alpha <= 1 {
		c.Alpha = 1.5
	}
	if c.Tenants <= 0 {
		c.Tenants = 1
	}
}

// LoadReport is the result of one RunLoad campaign, serialized into
// BENCH_serve.json by cmd/dsgld -loadtest.
type LoadReport struct {
	Model    string  `json:"model"`
	Sent     int     `json:"sent"`
	OK       int     `json:"ok"`
	Shed     int     `json:"shed"` // rate-limited + queue-full + draining
	Errors   int     `json:"errors"`
	QPS      float64 `json:"offered_qps"`
	Achieved float64 `json:"achieved_qps"`
	P50Ms    float64 `json:"p50_ms"`
	P90Ms    float64 `json:"p90_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
	// MeanBatch is the average engine-call batch size over OK requests —
	// the coalescing the open-loop burstiness actually achieved.
	MeanBatch float64 `json:"mean_batch"`
}

// RunLoad fires an open-loop request stream at the server's own in-process
// pipeline: arrivals are scheduled from a heavy-tailed (Pareto) inter-
// arrival distribution and do not wait for earlier responses, so queueing
// and coalescing behave as they would under independent network clients.
// Each request replays a window drawn from the model dataset's test split
// through the same admission path HTTP requests take.
func RunLoad(s *Server, cfg LoadConfig) (*LoadReport, error) {
	cfg.fillDefaults()
	entry, ok := s.models.Get(cfg.Model)
	if !ok {
		return nil, fmt.Errorf("serve: loadgen: unknown model %q", cfg.Model)
	}
	_, test := entry.Model.Dataset.Split()
	if len(test) == 0 {
		return nil, fmt.Errorf("serve: loadgen: model %q has no test windows", cfg.Model)
	}
	// Pre-build the observation lists once; the generator replays them.
	obsSets := make([][]engine.Observation, len(test))
	for i, w := range test {
		o, err := entry.Model.WindowObservations(w)
		if err != nil {
			return nil, fmt.Errorf("serve: loadgen: window %d: %w", i, err)
		}
		obsSets[i] = o
	}

	r := rng.New(cfg.Seed)
	// Pareto inter-arrivals with mean 1/QPS: for tail index α the mean is
	// x_m·α/(α−1), so scale x_m = (α−1)/(α·QPS) and sample x_m·U^(−1/α).
	xm := (cfg.Alpha - 1) / (cfg.Alpha * cfg.QPS)
	nextGap := func() time.Duration {
		u := r.Float64()
		if u == 0 {
			u = math.SmallestNonzeroFloat64
		}
		gap := xm * math.Pow(u, -1/cfg.Alpha)
		// Clip pathological tail draws at 100 mean gaps so a single sample
		// cannot stall the whole campaign.
		if max := 100 / cfg.QPS; gap > max {
			gap = max
		}
		return time.Duration(gap * float64(time.Second))
	}

	var (
		mu        sync.Mutex
		latencies []float64 // ms
		report    LoadReport
		batchSum  int
		wg        sync.WaitGroup
	)
	report.Model = cfg.Model
	report.QPS = cfg.QPS

	// Arrivals follow an absolute schedule: each gap is added to the planned
	// next-fire time, not slept after the spawn, so per-iteration overhead
	// (goroutine spawn, scheduler jitter, sleep granularity) cannot
	// accumulate and silently under-offer the configured rate.
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for next := start; next.Before(deadline); next = next.Add(nextGap()) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		i := report.Sent
		report.Sent++
		obsList := obsSets[i%len(obsSets)]
		seed := entry.Model.Engine().BaseSeed() + uint64(i)
		tenant := fmt.Sprintf("tenant-%d", i%cfg.Tenants)
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			out := s.do(entry, obsList, seed, tenant)
			dms := float64(time.Since(t0)) / float64(time.Millisecond)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case out.err == nil:
				report.OK++
				batchSum += out.batchSize
				latencies = append(latencies, dms)
			case out.shed:
				report.Shed++
			default:
				report.Errors++
			}
		}()
	}
	// Achieved throughput is completions over the send window, not the
	// window plus the tail drain — dividing by post-deadline drain time used
	// to understate the rate the server actually sustained.
	sendWindow := time.Since(start).Seconds()
	wg.Wait()

	report.Achieved = float64(report.OK) / sendWindow
	if report.OK > 0 {
		report.MeanBatch = float64(batchSum) / float64(report.OK)
		sort.Float64s(latencies)
		report.P50Ms = quantile(latencies, 0.50)
		report.P90Ms = quantile(latencies, 0.90)
		report.P99Ms = quantile(latencies, 0.99)
		report.MaxMs = latencies[len(latencies)-1]
	}
	return &report, nil
}

// loadResult is the loadgen view of one request outcome.
type loadResult struct {
	batchSize int
	shed      bool
	err       error
}

// do pushes one pre-validated request through the full admission pipeline
// (drain gate, rate limiter, bounded queue, batcher) without the HTTP
// encode/decode — the loadgen measures the serving layer, not the JSON
// codec.
func (s *Server) do(entry *ModelEntry, obsList []engine.Observation, seed uint64, tenant string) loadResult {
	if !s.beginRequest() {
		s.m.draining.Inc()
		return loadResult{shed: true, err: errDraining}
	}
	defer s.endRequest()
	if !s.limiter.allow(tenant, time.Now()) {
		s.m.rateLimited.Inc()
		return loadResult{shed: true, err: errRateLimited}
	}
	out := s.enqueue(entry, obsList, seed)
	if out.err != nil {
		if out.err == errQueueFull {
			s.m.queueFull.Inc()
			return loadResult{shed: true, err: out.err}
		}
		return loadResult{err: out.err}
	}
	s.m.admitted.Inc()
	return loadResult{batchSize: out.batchSize}
}

var (
	errDraining    = fmt.Errorf("serve: draining")
	errRateLimited = fmt.Errorf("serve: rate limited")
)

// quantile reads the q-quantile from sorted (ascending) samples by linear
// interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
