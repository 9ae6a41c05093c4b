package engine

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
)

// stubBackend is a minimal deterministic Backend: its "anneal" halves every
// free node once per run and counts plan compilations, so the tests can pin
// the engine's validation, seeding, caching, and batching behaviour without
// any real dynamics.
type stubBackend struct {
	n        int
	rails    float64
	seed     uint64
	compiles atomic.Int64
	planned  atomic.Int64
	naive    atomic.Int64
}

type stubPlan struct {
	free []int
}

type stubScratch struct {
	attached bool
}

func (s *stubBackend) Name() string     { return "stub" }
func (s *stubBackend) Dim() int         { return s.n }
func (s *stubBackend) Rails() float64   { return s.rails }
func (s *stubBackend) BaseSeed() uint64 { return s.seed }

func (s *stubBackend) CompilePlan(clamped []bool) any {
	s.compiles.Add(1)
	pl := &stubPlan{}
	for i, c := range clamped {
		if !c {
			pl.free = append(pl.free, i)
		}
	}
	return pl
}

func (s *stubBackend) AttachState(st *InferState) { st.Scratch = &stubScratch{attached: true} }

func (s *stubBackend) run(st *InferState, free []int) (*Result, error) {
	for step := 0; step < 2; step++ {
		for _, i := range free {
			st.X[i] *= 0.5
		}
		if st.Observer != nil {
			st.Observer(StepInfo{Step: step, TimeNs: float64(step + 1), EnergyFn: st.EnergyFn, X: st.X})
		}
	}
	st.Res = Result{Voltage: st.X, LatencyNs: 2, AnnealNs: 2, Settled: true, Steps: 2, Energy: s.EnergyAt(st.X)}
	return &st.Res, nil
}

func (s *stubBackend) RunPlanned(st *InferState, plan any) (*Result, error) {
	s.planned.Add(1)
	return s.run(st, plan.(*stubPlan).free)
}

func (s *stubBackend) RunNaive(st *InferState) (*Result, error) {
	s.naive.Add(1)
	free := make([]int, 0, s.n)
	for i, c := range st.Clamped {
		if !c {
			free = append(free, i)
		}
	}
	return s.run(st, free)
}

func (s *stubBackend) EnergyAt(x []float64) float64 {
	var e float64
	for _, v := range x {
		e += v * v
	}
	return e
}

func (s *stubBackend) ResidualAt(x []float64, clamped []bool) (float64, error) { return 0, nil }
func (s *stubBackend) SettleResidualTol() float64                              { return 1e-6 }

func newStub(n int) (*stubBackend, *Engine) {
	b := &stubBackend{n: n, rails: 1, seed: 11}
	return b, New(b)
}

// paths lists every anneal path a Request can select.
var paths = []Path{Planned, Naive, Sharded}

func TestValidationSharedAcrossEntryPoints(t *testing.T) {
	_, e := newStub(8)
	st := e.NewInferState()
	cases := []struct {
		obs  []Observation
		want string
	}{
		{[]Observation{{Index: -1, Value: 0}}, "out of range"},
		{[]Observation{{Index: 8, Value: 0}}, "out of range"},
		{[]Observation{{Index: 0, Value: 1.5}}, "exceeds rail"},
		{[]Observation{{Index: 2, Value: 0.1}, {Index: 2, Value: 0.1}}, "duplicate"},
	}
	for _, tc := range cases {
		for _, p := range paths {
			if _, err := e.Run(st, Request{Obs: tc.obs, Seed: 1, Path: p}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run(%v, path %d): got %v, want %q", tc.obs, p, err, tc.want)
			}
		}
		if err := e.EnsurePlan(tc.obs); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("EnsurePlan(%v): got %v, want %q", tc.obs, err, tc.want)
		}
	}
	// Error messages carry the backend name.
	_, err := e.InferSeeded([]Observation{{Index: 99, Value: 0}}, 1)
	if err == nil || !strings.Contains(err.Error(), "stub:") {
		t.Fatalf("error %v does not carry the backend name", err)
	}
}

// TestNonFiniteObservationsRejected: |NaN| > rail is false, so a rail
// check alone admits NaN. Every entry point must reject NaN and ±Inf at
// the validator, before the backend anneals anything.
func TestNonFiniteObservationsRejected(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b, e := newStub(8)
		obs := []Observation{{Index: 1, Value: 0.2}, {Index: 3, Value: v}}
		check := func(what string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), "not finite") {
				t.Fatalf("%s with value %v: got %v, want a not-finite rejection", what, v, err)
			}
		}
		st := e.NewInferState()
		for _, p := range paths {
			_, err := e.Run(st, Request{Obs: obs, Seed: 1, Path: p})
			check(fmt.Sprintf("Run(path %d)", p), err)
		}
		_, err := e.RunBatch([]Request{{Obs: obs, Seed: 1}, {Obs: obs, Seed: 2, Path: Naive}}, 2)
		check("RunBatch", err)
		s := e.OpenStream()
		_, err = s.Tick(obs, 1)
		check("Stream.Tick", err)
		s.Close()
		check("EnsurePlan", e.EnsurePlan(obs))
		if c, p, n := b.compiles.Load(), b.planned.Load(), b.naive.Load(); c+p+n != 0 {
			t.Fatalf("value %v reached the backend: %d compiles, %d planned, %d naive runs", v, c, p, n)
		}
	}
}

// TestRunPaths: Planned and Naive run different backend loops yet agree
// bit for bit; Sharded on a backend that cannot shard is Planned; an
// unknown path is an error.
func TestRunPaths(t *testing.T) {
	b, e := newStub(6)
	obs := []Observation{{Index: 2, Value: 0.3}}
	res := make(map[Path]*Result)
	for _, p := range paths {
		r, err := e.Run(e.NewInferState(), Request{Obs: obs, Seed: 5, Path: p})
		if err != nil {
			t.Fatalf("path %d: %v", p, err)
		}
		res[p] = r
	}
	if got := b.naive.Load(); got != 1 {
		t.Fatalf("naive loop ran %d times, want 1", got)
	}
	if got := b.planned.Load(); got != 2 {
		t.Fatalf("planned loop ran %d times, want 2 (Planned + Sharded fallback)", got)
	}
	for _, p := range []Path{Naive, Sharded} {
		for i := range res[Planned].Voltage {
			if math.Float64bits(res[p].Voltage[i]) != math.Float64bits(res[Planned].Voltage[i]) {
				t.Fatalf("path %d diverges from Planned at node %d", p, i)
			}
		}
	}
	if _, err := e.Run(e.NewInferState(), Request{Obs: obs, Path: Path(99)}); err == nil || !strings.Contains(err.Error(), "unknown inference path") {
		t.Fatalf("unknown path: got %v", err)
	}
}

func TestSeedingConventionAndClampWrite(t *testing.T) {
	_, e := newStub(4)
	obs := []Observation{{Index: 1, Value: 0.25}}
	a, err := e.InferSeeded(obs, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.InferSeeded(obs, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Voltage {
		if math.Float64bits(a.Voltage[i]) != math.Float64bits(b.Voltage[i]) {
			t.Fatalf("same seed diverges at node %d", i)
		}
	}
	if a.Voltage[1] != 0.25 {
		t.Fatalf("clamped node moved: %g", a.Voltage[1])
	}
	c, err := e.InferSeeded(obs, 43)
	if err != nil {
		t.Fatal(err)
	}
	if c.Voltage[0] == a.Voltage[0] {
		t.Fatal("different seeds produced identical free-node init")
	}
}

func TestInferBatchMatchesSequential(t *testing.T) {
	b, e := newStub(6)
	obsList := make([][]Observation, 9)
	for i := range obsList {
		obsList[i] = []Observation{{Index: i % 3, Value: 0.1 * float64(i%5)}}
	}
	seq := make([]*Result, len(obsList))
	for i, obs := range obsList {
		r, err := e.InferSeeded(obs, b.BaseSeed()+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		seq[i] = r
	}
	for _, workers := range []int{1, 4} {
		par, err := e.InferBatch(obsList, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			for k := range seq[i].Voltage {
				if math.Float64bits(par[i].Voltage[k]) != math.Float64bits(seq[i].Voltage[k]) {
					t.Fatalf("workers=%d window %d node %d: %v vs %v",
						workers, i, k, par[i].Voltage[k], seq[i].Voltage[k])
				}
			}
		}
	}
	// Batch errors come back in window order: the first bad window wins.
	obsList[3] = []Observation{{Index: 99, Value: 0}}
	obsList[7] = []Observation{{Index: -1, Value: 0}}
	if _, err := e.InferBatch(obsList, 4); err == nil || !strings.Contains(err.Error(), "99") {
		t.Fatalf("batch error %v, want the window-3 violation", err)
	}
}

// TestInferBatchSeedsMatchesSolo: RunBatch with each request's own seed
// and path — the serving layer's coalesced batches — is bit-identical to
// running every request alone, for any worker count.
func TestInferBatchSeedsMatchesSolo(t *testing.T) {
	_, e := newStub(6)
	reqs := make([]Request, 7)
	for i := range reqs {
		// Non-contiguous, out-of-order seeds and mixed paths: the serving
		// layer hands the engine whatever seeds its requests arrived with.
		reqs[i] = Request{
			Obs:  []Observation{{Index: i % 3, Value: 0.1 * float64(i%4)}},
			Seed: uint64(1000 - 17*i),
			Path: paths[i%len(paths)],
		}
	}
	solo := make([]*Result, len(reqs))
	for i, req := range reqs {
		r, err := e.Run(e.NewInferState(), req)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = r
	}
	for _, workers := range []int{1, 4} {
		par, err := e.RunBatch(reqs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range solo {
			for k := range solo[i].Voltage {
				if math.Float64bits(par[i].Voltage[k]) != math.Float64bits(solo[i].Voltage[k]) {
					t.Fatalf("workers=%d request %d node %d: %v vs %v",
						workers, i, k, par[i].Voltage[k], solo[i].Voltage[k])
				}
			}
		}
	}
}

func TestPlanCacheCountersAndEviction(t *testing.T) {
	b, e := newStub(32)
	st := e.NewInferState()
	obs := []Observation{{Index: 0, Value: 0.5}}
	for k := 0; k < 4; k++ {
		if _, err := e.InferWith(st, obs, uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := e.PlanCacheStats()
	if hits != 3 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 3/1", hits, misses)
	}
	if got := b.compiles.Load(); got != 1 {
		t.Fatalf("backend compiled %d plans, want 1", got)
	}
	// Cycle through more patterns than the cache holds; the cache stays
	// bounded and the first pattern is evicted and recompiled on return.
	for p := 0; p < PlanCacheCapacity+1; p++ {
		if _, err := e.InferWith(st, []Observation{{Index: p + 1, Value: 0.1}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.PlanCacheLen(); n != PlanCacheCapacity {
		t.Fatalf("cache holds %d plans, cap %d", n, PlanCacheCapacity)
	}
	before := b.compiles.Load()
	if _, err := e.InferWith(st, obs, 9); err != nil {
		t.Fatal(err)
	}
	if got := b.compiles.Load(); got != before+1 {
		t.Fatalf("evicted pattern did not recompile: %d -> %d", before, got)
	}
}

func TestEnsurePlanWarmsCache(t *testing.T) {
	b, e := newStub(8)
	obs := []Observation{{Index: 2, Value: 0.3}, {Index: 5, Value: -0.1}}
	if err := e.EnsurePlan(obs); err != nil {
		t.Fatal(err)
	}
	if got := b.compiles.Load(); got != 1 {
		t.Fatalf("EnsurePlan compiled %d plans, want 1", got)
	}
	if _, err := e.InferSeeded(obs, 1); err != nil {
		t.Fatal(err)
	}
	hits, misses := e.PlanCacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("post-EnsurePlan inference: hits=%d misses=%d, want 1/1", hits, misses)
	}
	// Warm EnsurePlan neither allocates nor recompiles.
	allocs := testing.AllocsPerRun(5, func() {
		if err := e.EnsurePlan(obs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm EnsurePlan allocated %v per op, want 0", allocs)
	}
}

func TestForeignStateRejected(t *testing.T) {
	_, e1 := newStub(4)
	_, e2 := newStub(4)
	st := e1.NewInferState()
	if _, err := e2.InferWith(st, nil, 1); err == nil || !strings.Contains(err.Error(), "different engine") {
		t.Fatalf("foreign state: got %v", err)
	}
	if _, err := e2.Run(st, Request{Path: Naive}); err == nil || !strings.Contains(err.Error(), "different engine") {
		t.Fatalf("foreign state on the naive path: got %v", err)
	}
	if _, err := e2.InferWith(nil, nil, 1); err == nil {
		t.Fatal("nil state accepted")
	}
}

func TestDetachBreaksAliasing(t *testing.T) {
	_, e := newStub(4)
	st := e.NewInferState()
	r1, err := e.InferWith(st, []Observation{{Index: 0, Value: 0.5}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	det := r1.Detach()
	want := append([]float64(nil), det.Voltage...)
	if _, err := e.InferWith(st, []Observation{{Index: 1, Value: -0.5}}, 2); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if det.Voltage[i] != want[i] {
			t.Fatalf("detached result mutated at node %d", i)
		}
	}
	if &r1.Voltage[0] != &st.Res.Voltage[0] {
		t.Fatal("undetached result should alias the state buffer")
	}
}

func TestObserverDispatch(t *testing.T) {
	_, e := newStub(4)
	st := e.NewInferState()
	var steps []int
	var energies []float64
	st.SetObserver(func(si StepInfo) {
		steps = append(steps, si.Step)
		energies = append(energies, si.EnergyFn())
	})
	res, err := e.InferWith(st, []Observation{{Index: 0, Value: 0.5}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(steps) != "[0 1]" {
		t.Fatalf("observer saw steps %v", steps)
	}
	if energies[len(energies)-1] != res.Energy {
		t.Fatalf("last observed energy %g != result energy %g", energies[len(energies)-1], res.Energy)
	}
	st.SetObserver(nil)
	n := len(steps)
	if _, err := e.InferWith(st, nil, 3); err != nil {
		t.Fatal(err)
	}
	if len(steps) != n {
		t.Fatal("observer fired after removal")
	}
}
