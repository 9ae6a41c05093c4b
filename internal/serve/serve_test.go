package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dsgl"
	"dsgl/internal/engine"
)

// testModel trains one tiny scalable model, shared across the suite (the
// serving layer never mutates a registered model, so sharing is safe under
// -race -shuffle=on).
var (
	modelOnce sync.Once
	model     *dsgl.Model
	modelErr  error
)

func testModel(t *testing.T) *dsgl.Model {
	t.Helper()
	modelOnce.Do(func() {
		ds := dsgl.GenerateDataset("traffic", dsgl.DatasetConfig{N: 16, T: 400, History: 4, Horizon: 1, Seed: 2})
		model, modelErr = dsgl.Train(ds, dsgl.Options{Density: 0.15, PECapacity: 24, MaxInferNs: 3000, Seed: 5})
	})
	if modelErr != nil {
		t.Fatalf("training test model: %v", modelErr)
	}
	return model
}

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.Register("traffic", testModel(t)); err != nil {
		t.Fatalf("register: %v", err)
	}
	return reg
}

func testObs(t *testing.T, m *dsgl.Model) []engine.Observation {
	t.Helper()
	_, test := m.Dataset.Split()
	obsList, err := m.WindowObservations(test[0])
	if err != nil {
		t.Fatalf("window observations: %v", err)
	}
	return obsList
}

// TestBatchingDeterminism pins the serving determinism contract: requests
// coalesced into one engine call return voltages bit-identical to the same
// requests served solo.
func TestBatchingDeterminism(t *testing.T) {
	m := testModel(t)
	obsList := testObs(t, m)
	const n = 6
	s := New(testRegistry(t), Config{BatchWindow: time.Minute, MaxBatch: n, Workers: 3})
	entry, _ := s.models.Get("traffic")

	// n concurrent requests with the same clamp mask but distinct,
	// non-contiguous seeds; the nth arrival fills the batch and flushes.
	outs := make([]execResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seed := uint64(9000 - 31*i)
			outs[i] = s.enqueue(groupKey("traffic", obsList, entry.Dim), entry, obsList, seed)
		}(i)
	}
	wg.Wait()

	eng := m.Engine()
	for i := 0; i < n; i++ {
		if outs[i].err != nil {
			t.Fatalf("request %d: %v", i, outs[i].err)
		}
		if outs[i].batchSize != n {
			t.Fatalf("request %d rode batch of %d, want %d (coalescing failed)", i, outs[i].batchSize, n)
		}
		solo, err := eng.InferSeeded(obsList, uint64(9000-31*i))
		if err != nil {
			t.Fatalf("solo request %d: %v", i, err)
		}
		for k := range solo.Voltage {
			if math.Float64bits(outs[i].res.Voltage[k]) != math.Float64bits(solo.Voltage[k]) {
				t.Fatalf("request %d node %d: batched %g != solo %g (bit mismatch)",
					i, k, outs[i].res.Voltage[k], solo.Voltage[k])
			}
		}
	}
}

// TestDrainNoDroppedRequests checks the graceful-drain contract: every
// request admitted before Drain is answered, and requests arriving during
// the drain are refused.
func TestDrainNoDroppedRequests(t *testing.T) {
	m := testModel(t)
	obsList := testObs(t, m)
	// A batch window far longer than the test: without the drain's force
	// flush these requests would time the test out.
	s := New(testRegistry(t), Config{BatchWindow: time.Hour, MaxBatch: 100, DrainTimeout: 30 * time.Second})
	entry, _ := s.models.Get("traffic")

	const n = 4
	outs := make([]loadResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = s.do(entry, obsList, uint64(100+i), "")
		}(i)
	}
	// Wait until all n are parked in the batch group, then drain.
	deadline := time.Now().Add(10 * time.Second)
	for s.QueueDepth() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", s.QueueDepth(), n)
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	for i, out := range outs {
		if out.err != nil {
			t.Fatalf("request %d dropped during drain: %v", i, out.err)
		}
	}
	if out := s.do(entry, obsList, 1, ""); out.err == nil || !out.shed {
		t.Fatalf("request after drain: got %+v, want draining shed", out)
	}
	if !s.Draining() {
		t.Fatal("server not marked draining")
	}
}

// TestQueueFullShedding checks the bounded-queue admission path: once
// MaxQueue requests are parked, further arrivals shed immediately with
// errQueueFull instead of blocking.
func TestQueueFullShedding(t *testing.T) {
	m := testModel(t)
	obsList := testObs(t, m)
	s := New(testRegistry(t), Config{BatchWindow: time.Hour, MaxBatch: 100, MaxQueue: 2, DrainTimeout: 30 * time.Second})
	entry, _ := s.models.Get("traffic")

	var wg sync.WaitGroup
	outs := make([]loadResult, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = s.do(entry, obsList, uint64(i), "")
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.QueueDepth() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want 2", s.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}
	out := s.do(entry, obsList, 99, "")
	if out.err != errQueueFull || !out.shed {
		t.Fatalf("overflow request: got %+v, want queue-full shed", out)
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("parked request %d: %v", i, o.err)
		}
	}
}

// TestRateLimitShedding checks per-tenant token-bucket shedding end to end
// (batching disabled so requests complete inline).
func TestRateLimitShedding(t *testing.T) {
	m := testModel(t)
	obsList := testObs(t, m)
	s := New(testRegistry(t), Config{BatchWindow: -1, RatePerSec: 0.001, Burst: 2})
	entry, _ := s.models.Get("traffic")

	for i := 0; i < 2; i++ {
		if out := s.do(entry, obsList, uint64(i), "alice"); out.err != nil {
			t.Fatalf("request %d inside burst: %v", i, out.err)
		}
	}
	if out := s.do(entry, obsList, 3, "alice"); out.err != errRateLimited {
		t.Fatalf("request over burst: got %+v, want rate-limit shed", out)
	}
	// Tenants are isolated: bob's bucket is untouched by alice's burn.
	if out := s.do(entry, obsList, 4, "bob"); out.err != nil {
		t.Fatalf("other tenant: %v", out.err)
	}
}

// TestTenantLimiter unit-tests the token bucket with injected time.
func TestTenantLimiter(t *testing.T) {
	if newTenantLimiter(0, 10) != nil {
		t.Fatal("rate 0 should disable the limiter")
	}
	var nilLim *tenantLimiter
	if !nilLim.allow("anyone", time.Time{}) {
		t.Fatal("nil limiter must admit everything")
	}

	now := time.Unix(1000, 0)
	l := newTenantLimiter(2, 2) // 2 rps, burst 2
	for i := 0; i < 2; i++ {
		if !l.allow("a", now) {
			t.Fatalf("burst request %d refused", i)
		}
	}
	if l.allow("a", now) {
		t.Fatal("request over burst admitted")
	}
	// Half a second refills one token.
	now = now.Add(500 * time.Millisecond)
	if !l.allow("a", now) {
		t.Fatal("refilled token refused")
	}
	if l.allow("a", now) {
		t.Fatal("second request after single refill admitted")
	}
	// Refill never exceeds burst.
	now = now.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if !l.allow("a", now) {
			t.Fatalf("post-idle burst request %d refused", i)
		}
	}
	if l.allow("a", now) {
		t.Fatal("burst cap not enforced after idle refill")
	}
}

// TestRegistryLoadEvict checks snapshot loading, warmup, replacement, and
// eviction. Warmup is asserted via PlanCacheStats: registration itself
// compiles the dataset clamp plan, so a model's first inference is a cache
// hit.
func TestRegistryLoadEvict(t *testing.T) {
	ds := dsgl.GenerateDataset("covid", dsgl.DatasetConfig{N: 16, T: 400, History: 4, Horizon: 1, Seed: 3})
	m, err := dsgl.Train(ds, dsgl.Options{Density: 0.15, PECapacity: 24, MaxInferNs: 3000, Seed: 5})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	path := filepath.Join(t.TempDir(), "covid.dsgl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatalf("save: %v", err)
	}
	f.Close()

	reg := NewRegistry()
	entry, err := reg.LoadSnapshot("covid", path, ds)
	if err != nil {
		t.Fatalf("load snapshot: %v", err)
	}
	if entry.Dim != ds.WindowLen() {
		t.Fatalf("entry dim %d, want %d", entry.Dim, ds.WindowLen())
	}
	hits0, misses0 := entry.Model.PlanCacheStats()
	if misses0 == 0 {
		t.Fatal("registration did not warm the plan cache (no compile recorded)")
	}
	// A served inference on the dataset pattern must hit the warmed plan.
	_, test := ds.Split()
	obsList, err := entry.Model.WindowObservations(test[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := entry.Model.Engine().InferSeeded(obsList, 1); err != nil {
		t.Fatalf("infer: %v", err)
	}
	hits1, misses1 := entry.Model.PlanCacheStats()
	if hits1 <= hits0 {
		t.Fatalf("warmed inference did not hit the plan cache (hits %d -> %d)", hits0, hits1)
	}
	if misses1 != misses0 {
		t.Fatalf("warmed inference recompiled the plan (misses %d -> %d)", misses0, misses1)
	}

	// Replacement and eviction.
	if _, err := reg.Register("covid", entry.Model); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if got := reg.Names(); len(got) != 1 || got[0] != "covid" {
		t.Fatalf("names after replace: %v", got)
	}
	if !reg.Evict("covid") {
		t.Fatal("evict known model failed")
	}
	if reg.Evict("covid") {
		t.Fatal("evicting twice reported success")
	}
	if reg.Len() != 0 {
		t.Fatalf("registry length %d after evict", reg.Len())
	}

	// Invalid names.
	if _, err := reg.Register("", entry.Model); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := reg.Register("bad\x00name", entry.Model); err == nil {
		t.Fatal("NUL name accepted")
	}
}

// TestHTTPEndToEnd exercises the JSON surface: example -> infer round trip,
// model listing, obs mounts, health, shedding status codes, and seed echo.
func TestHTTPEndToEnd(t *testing.T) {
	s := New(testRegistry(t), Config{BatchWindow: -1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Ready-to-POST example request.
	resp, err := http.Get(srv.URL + "/v1/example?model=traffic")
	if err != nil {
		t.Fatal(err)
	}
	var req InferRequest
	if err := json.NewDecoder(resp.Body).Decode(&req); err != nil {
		t.Fatalf("decode example: %v", err)
	}
	resp.Body.Close()
	if req.Model != "traffic" || len(req.Window) == 0 {
		t.Fatalf("bad example request: %+v", req)
	}

	post := func(body any) (*http.Response, []byte) {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+"/v1/infer", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	resp2, body := post(req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("infer status %d: %s", resp2.StatusCode, body)
	}
	var out InferResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.BatchSize != 1 || len(out.Indices) == 0 || len(out.Values) != len(out.Indices) {
		t.Fatalf("bad infer response: %+v", out)
	}
	if out.Seed != testModel(t).Engine().BaseSeed() {
		t.Fatalf("seed echo %d, want model base seed", out.Seed)
	}

	// Explicit seed round-trips and changes nothing else.
	seed := uint64(424242)
	req.Seed = &seed
	if resp3, body3 := post(req); resp3.StatusCode != http.StatusOK {
		t.Fatalf("seeded infer status %d: %s", resp3.StatusCode, body3)
	} else {
		var out3 InferResponse
		if err := json.Unmarshal(body3, &out3); err != nil {
			t.Fatal(err)
		}
		if out3.Seed != seed {
			t.Fatalf("seed echo %d, want %d", out3.Seed, seed)
		}
	}

	// Explicit-observations form.
	obsReq := InferRequest{Model: "traffic", Observations: []Observation{{Index: 0, Value: 0.5}, {Index: 3, Value: -0.25}}}
	if resp4, body4 := post(obsReq); resp4.StatusCode != http.StatusOK {
		t.Fatalf("observations infer status %d: %s", resp4.StatusCode, body4)
	}

	// Error paths.
	for _, tc := range []struct {
		name string
		req  InferRequest
		code int
	}{
		{"unknown model", InferRequest{Model: "nope", Window: req.Window}, http.StatusNotFound},
		{"no clamps", InferRequest{Model: "traffic"}, http.StatusBadRequest},
		{"both forms", InferRequest{Model: "traffic", Window: req.Window, Observations: obsReq.Observations}, http.StatusBadRequest},
		{"short window", InferRequest{Model: "traffic", Window: []float64{1, 2, 3}}, http.StatusBadRequest},
		{"index out of range", InferRequest{Model: "traffic", Observations: []Observation{{Index: -1}}}, http.StatusBadRequest},
		{"duplicate index", InferRequest{Model: "traffic", Observations: []Observation{{Index: 2}, {Index: 2}}}, http.StatusBadRequest},
	} {
		if resp, body := post(tc.req); resp.StatusCode != tc.code {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, body)
		}
	}

	// Model listing with warm plan stats.
	resp5, err := http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models []modelInfo
	if err := json.NewDecoder(resp5.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp5.Body.Close()
	if len(models) != 1 || models[0].Name != "traffic" || models[0].PlanMiss == 0 {
		t.Fatalf("bad model listing: %+v", models)
	}

	// Obs endpoints are mounted.
	for _, path := range []string{"/healthz", "/metrics", "/metricsz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
	}

	// Drain refuses new work with 503 on both infer and health.
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if resp, _ := post(req); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("infer during drain: status %d, want 503", resp.StatusCode)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", rec.Code)
	}
}

// TestStartDrain boots a real listener on a random port, serves one
// inference, and drains.
func TestStartDrain(t *testing.T) {
	s := New(testRegistry(t), Config{BatchWindow: -1})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/v1/example?model=traffic")
	if err != nil {
		t.Fatal(err)
	}
	var req InferRequest
	if err := json.NewDecoder(resp.Body).Decode(&req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	b, _ := json.Marshal(req)
	resp2, err := http.Post("http://"+addr+"/v1/infer", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("infer status %d", resp2.StatusCode)
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// TestRunLoad smoke-tests the open-loop generator: a short heavy-tail
// campaign completes with sane numbers and some coalescing.
func TestRunLoad(t *testing.T) {
	s := New(testRegistry(t), Config{BatchWindow: 2 * time.Millisecond, MaxBatch: 16})
	rep, err := RunLoad(s, LoadConfig{Model: "traffic", QPS: 400, Duration: 300 * time.Millisecond, Seed: 7, Tenants: 2})
	if err != nil {
		t.Fatalf("run load: %v", err)
	}
	if rep.Sent == 0 || rep.OK == 0 {
		t.Fatalf("no load generated: %+v", rep)
	}
	if rep.OK+rep.Shed+rep.Errors != rep.Sent {
		t.Fatalf("outcomes do not sum: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("load errors: %+v", rep)
	}
	if rep.P50Ms <= 0 || rep.P99Ms < rep.P50Ms || rep.MaxMs < rep.P99Ms {
		t.Fatalf("implausible quantiles: %+v", rep)
	}
	if rep.MeanBatch < 1 {
		t.Fatalf("mean batch %v < 1", rep.MeanBatch)
	}
	if _, err := RunLoad(s, LoadConfig{Model: "nope"}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// TestGroupKey checks that distinct clamp masks and models never collide.
func TestGroupKey(t *testing.T) {
	a := []engine.Observation{{Index: 0}, {Index: 5}}
	b := []engine.Observation{{Index: 0}, {Index: 6}}
	if groupKey("m", a, 16) == groupKey("m", b, 16) {
		t.Fatal("different masks share a key")
	}
	if groupKey("m1", a, 16) == groupKey("m2", a, 16) {
		t.Fatal("different models share a key")
	}
	if groupKey("m", a, 16) != groupKey("m", []engine.Observation{{Index: 5}, {Index: 0}}, 16) {
		t.Fatal("observation order changed the key")
	}
}
