package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"dsgl"
	"dsgl/internal/serve"
)

const (
	// serveCallers is the number of closed-loop callers: each sends its
	// next request when the last one is answered. Eight callers on a
	// 2-vCPU host keep a batch forming while another anneals, so the
	// server is never idle between requests.
	serveCallers = 8
	// serveBodies is how many distinct pre-encoded requests the callers
	// cycle through.
	serveBodies = 1024
	// serveModel is the registry name requests address.
	serveModel = "traffic"
	// trafficSetupReps is how many times the N=16 workloads set up per run;
	// one set-up takes about 0.1 s.
	trafficSetupReps = 20
	// serveTracedRequests is the traced run's fixed request count per
	// caller (each pass).
	serveTracedRequests = 100
	// serveCheckSample is how many answered requests are re-run solo.
	serveCheckSample = 256
)

// runServe is serve-traffic16: the N=16 model booted as dsgld boots it,
// with metrics on, driven by serveCallers closed-loop callers. Each
// request is a pre-encoded /v1/infer body (a seeded test window and an
// explicit anneal seed) sent through the server's handler in-process, so
// JSON decoding and encoding, admission, the batch window and coalescing
// are all on the measured path, and no socket is.
func runServe(rc *runConfig, rep *report) error {
	dsgl.EnableMetrics()
	var ds *dsgl.Dataset
	var m *dsgl.Model
	var srv *serve.Server
	setup, err := timeSetups(trafficSetupReps, func(i int) (err error) {
		ds, m, err = trafficSetup(rc.tr, i, 16, rc.seed)
		if err != nil {
			return err
		}
		reg := serve.NewRegistry()
		if _, err := reg.Register(serveModel, m); err != nil {
			return err
		}
		srv = serve.New(reg, serve.Config{})
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("setup_s", setup, trafficSetupReps)
	if rc.tr != nil {
		if err := trafficLedger(rc, rep, ds, m, trafficSetupReps); err != nil {
			return err
		}
	}

	_, test := ds.Split()
	load, err := newServeLoad(rc.rng(2), test)
	if err != nil {
		return err
	}
	h := srv.Handler()
	if p := load.pass(h, nil, 1, 1, time.Time{}); p.ok() == 0 { // warm-up: one request
		return fmt.Errorf("warm-up request failed")
	}
	runtime.GC()

	var p *servePass
	if rc.tr != nil {
		n := serveCallers * serveTracedRequests
		m0 := readMem()
		plain := load.pass(h, nil, serveCallers, serveTracedRequests, time.Time{})
		rep.setGC(memDelta(m0, readMem(), n), n)
		runtime.GC()
		c0, s0 := inferWall()
		hits0, misses0 := m.PlanCacheStats()
		p = load.pass(h, rc.tr, serveCallers, serveTracedRequests, time.Time{})
		hits1, misses1 := m.PlanCacheStats()
		c1, s1 := inferWall()
		engineMs := 1000 * ratio(s1-s0, float64(c1-c0))
		requestMs := rc.tr.p50("serve.handler")
		rep.set("serve.request_ms", requestMs, p.ok())
		rep.set("serve.engine_ms", engineMs, int(c1-c0))
		rep.set("serve.self_ms", requestMs-engineMs, p.ok())
		batched, coalesced := 0.0, 0.0
		for _, r := range p.resp {
			if r != nil {
				batched += float64(r.BatchSize)
				if r.BatchSize > 1 {
					coalesced++
				}
			}
		}
		rep.set("serve.mean_batch", ratio(batched, float64(p.ok())), p.ok())
		rep.set("serve.coalesced_ratio", ratio(coalesced, float64(p.ok())), p.ok())
		lookups := hits1 - hits0 + misses1 - misses0
		rep.set("engine.plan_hit_ratio", ratio(float64(hits1-hits0), float64(lookups)), int(lookups))
		rep.set("trace.overhead_ratio", p.wall.Seconds()/plain.wall.Seconds()-1, 2*n)
		load.count(rep, plain)
	} else {
		m0 := readMem()
		p = load.pass(h, nil, serveCallers, math.MaxInt, time.Now().Add(rc.seconds))
		rep.set("max_rss_mb", maxRSSMB(), 1)
		rep.record["gc"] = memDelta(m0, readMem(), len(p.resp))
		rep.set("ops_per_s", float64(p.ok())/p.wall.Seconds(), p.ok())
		if err := rep.latencies(rc, opLog{ms: p.lat, at: p.at}, rc.seconds); err != nil {
			return err
		}
		rep.record["ops"] = len(p.resp)
		rep.record["callers"] = serveCallers
	}
	load.count(rep, p)
	if err := load.check(rc, rep, m, test, p); err != nil {
		return err
	}
	if err := srv.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

// inferWall reads the engine's host wall-time histogram from the metrics
// registry: sample count and sum in seconds, across backends.
func inferWall() (count uint64, sum float64) {
	for _, s := range dsgl.MetricsSnapshot() {
		if s.Name == "dsgl_infer_wall_seconds" && s.SampleSum != nil {
			count += s.SampleCount
			sum += *s.SampleSum
		}
	}
	return count, sum
}

// serveLoad is the pool of pre-encoded requests the callers cycle
// through.
type serveLoad struct {
	bodies [][]byte
	window []int // test window each request carries
	seed   []uint64
}

// newServeLoad encodes serveBodies requests, each carrying a seeded test
// window and an explicit anneal seed.
func newServeLoad(g *rand.Rand, test []dsgl.Window) (*serveLoad, error) {
	l := &serveLoad{bodies: make([][]byte, serveBodies), window: make([]int, serveBodies), seed: make([]uint64, serveBodies)}
	for i := range l.bodies {
		l.window[i] = g.IntN(len(test))
		l.seed[i] = g.Uint64()
		body, err := json.Marshal(serve.InferRequest{Model: serveModel, Window: test[l.window[i]].Full, Seed: &l.seed[i]})
		if err != nil {
			return nil, err
		}
		l.bodies[i] = body
	}
	return l, nil
}

// servePass is the outcome of one pass, one entry per request sent.
type servePass struct {
	lat  []float64       // ms from send to response; failedMs on failure
	at   []time.Duration // when each request was sent, from the pass start
	body []int           // which pooled request was sent
	resp []*serve.InferResponse
	wall time.Duration
}

func (p *servePass) ok() int {
	n := 0
	for _, r := range p.resp {
		if r != nil {
			n++
		}
	}
	return n
}

// pass runs callers closed-loop callers, each sending up to perCaller
// requests until the deadline (zero: none), and waits for them. Caller c
// sends pooled requests c, c+callers, c+2*callers, ... A request fails on
// a non-200 status, an undecodable body or an unsettled result.
func (l *serveLoad) pass(h http.Handler, tr *tracer, callers, perCaller int, deadline time.Time) *servePass {
	parts := make([]servePass, callers)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range parts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			for k := 0; k < perCaller && (deadline.IsZero() || time.Now().Before(deadline)); k++ {
				i := (c + k*callers) % len(l.bodies)
				req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(l.bodies[i]))
				rec := httptest.NewRecorder()
				id := tr.begin("serve.handler", c<<32|k, 0)
				sent := time.Now()
				h.ServeHTTP(rec, req)
				d := time.Since(sent)
				tr.end(id)
				p.at = append(p.at, sent.Sub(start))
				p.body = append(p.body, i)
				var out serve.InferResponse
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil || !out.Settled {
					p.lat = append(p.lat, failedMs)
					p.resp = append(p.resp, nil)
					continue
				}
				p.lat = append(p.lat, ms(d))
				p.resp = append(p.resp, &out)
			}
		}(c)
	}
	wg.Wait()
	out := &servePass{wall: time.Since(start)}
	for _, p := range parts {
		out.lat = append(out.lat, p.lat...)
		out.at = append(out.at, p.at...)
		out.body = append(out.body, p.body...)
		out.resp = append(out.resp, p.resp...)
	}
	return out
}

// count adds a pass's requests to the run's attempted and failed ops.
func (l *serveLoad) count(rep *report, p *servePass) {
	rep.attempted += len(p.resp)
	rep.failed += len(p.resp) - p.ok()
}

// check re-runs a seeded sample of answered requests solo through
// Engine().InferSeeded at the echoed seed; the responses' values must
// match bit for bit, batched or not.
func (l *serveLoad) check(rc *runConfig, rep *report, m *dsgl.Model, test []dsgl.Window, p *servePass) error {
	var answered []int
	for i, r := range p.resp {
		if r != nil {
			answered = append(answered, i)
		}
	}
	g := rc.rng(3)
	g.Shuffle(len(answered), func(i, j int) { answered[i], answered[j] = answered[j], answered[i] })
	sample := answered[:min(len(answered), serveCheckSample)]
	bad := make([]string, len(sample))
	errs := make([]error, len(sample))
	parallel(m.Opts.Workers, len(sample), func(k int) {
		r, i := p.resp[sample[k]], p.body[sample[k]]
		if r.Seed != l.seed[i] {
			bad[k] = fmt.Sprintf("request %d: echoed seed %d, sent %d", i, r.Seed, l.seed[i])
			return
		}
		obs, err := m.WindowObservations(test[l.window[i]])
		if err != nil {
			errs[k] = err
			return
		}
		want, err := m.Engine().InferSeeded(obs, r.Seed)
		if err != nil {
			errs[k] = err
			return
		}
		if len(r.Values) != len(r.Indices) {
			bad[k] = fmt.Sprintf("request %d: %d values for %d indices", i, len(r.Values), len(r.Indices))
			return
		}
		for j, idx := range r.Indices {
			if idx < 0 || idx >= len(want.Voltage) || !sameBits(r.Values[j:j+1], want.Voltage[idx:idx+1]) {
				bad[k] = fmt.Sprintf("request %d (batch %d): value %d differs from solo InferSeeded", i, r.BatchSize, j)
				return
			}
		}
	})
	for k := range sample {
		if errs[k] != nil {
			return fmt.Errorf("check: %w", errs[k])
		}
		if bad[k] != "" {
			rep.failed++
			rep.mismatch("%s", bad[k])
		}
	}
	rep.record["checked_requests"] = len(sample)
	return nil
}
