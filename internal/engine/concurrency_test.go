package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// slowCompiles hands out compile funcs for planCache.resolve that sleep
// for delay and track how many compiles overlap, so the tests can prove
// (a) same-key compiles coalesce to one and (b) different-key compiles are
// NOT serialized behind the cache mutex.
type slowCompiles struct {
	delay       time.Duration
	compiles    atomic.Int64
	inFlight    atomic.Int64
	maxInFlight atomic.Int64
}

// compile returns a slow compile func whose plan is v.
func (s *slowCompiles) compile(v int) func() int {
	return func() int {
		s.compiles.Add(1)
		cur := s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		for {
			max := s.maxInFlight.Load()
			if cur <= max || s.maxInFlight.CompareAndSwap(max, cur) {
				break
			}
		}
		time.Sleep(s.delay)
		return v
	}
}

// TestPlanCompileCoalescesSameKey: G resolvers racing on one cold key must
// trigger exactly one compile — everyone else either waits on the
// in-flight call or lands on the published plan, and all G-1 of them count
// as cache hits.
func TestPlanCompileCoalescesSameKey(t *testing.T) {
	const G = 8
	var c planCache[int]
	sc := &slowCompiles{delay: 20 * time.Millisecond}
	key := []byte{0x04, 0x02}

	got := make([]int, G)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g] = c.resolve(key, sc.compile(7), &engineObs{})
		}(g)
	}
	close(start)
	wg.Wait()

	if n := sc.compiles.Load(); n != 1 {
		t.Fatalf("compiles = %d, want 1 (same-key compiles must coalesce)", n)
	}
	hits, misses := c.stats()
	if misses != 1 || hits != G-1 {
		t.Fatalf("stats hits=%d misses=%d, want hits=%d misses=1", hits, misses, G-1)
	}
	if max := sc.maxInFlight.Load(); max != 1 {
		t.Fatalf("max concurrent compiles = %d, want 1 for a single key", max)
	}
	for g, v := range got {
		if v != 7 {
			t.Fatalf("resolver %d got plan %d, want the one compiled plan 7", g, v)
		}
	}
}

// TestPlanCompileDifferentKeysOverlap: distinct cold keys must compile
// concurrently rather than queueing behind the cache mutex. Each compile
// sleeps 30ms; if compilation still ran under the lock the in-flight high
// water mark would be pinned at 1.
func TestPlanCompileDifferentKeysOverlap(t *testing.T) {
	const G = 4
	var c planCache[int]
	sc := &slowCompiles{delay: 30 * time.Millisecond}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			if v := c.resolve([]byte{byte(g)}, sc.compile(g), &engineObs{}); v != g {
				t.Errorf("key %d resolved to plan %d", g, v)
			}
		}(g)
	}
	close(start)
	wg.Wait()

	if n := sc.compiles.Load(); n != G {
		t.Fatalf("compiles = %d, want %d distinct", n, G)
	}
	if _, misses := c.stats(); misses != G {
		t.Fatalf("misses = %d, want %d", misses, G)
	}
	if max := sc.maxInFlight.Load(); max < 2 {
		t.Fatalf("max concurrent compiles = %d, want >= 2 (distinct keys must not serialize)", max)
	}
}

// TestPlanCacheHitRefreshesRecencyWhenBusy: a hit that arrives while the
// cache lock is held still makes its key the most recently used, so the
// next eviction drops the next-oldest key instead.
func TestPlanCacheHitRefreshesRecencyWhenBusy(t *testing.T) {
	var c planCache[int]
	compile := func(v int) func() int { return func() int { return v } }
	for k := 0; k < PlanCacheCapacity; k++ {
		c.resolve([]byte{byte(k)}, compile(k), &engineObs{})
	}
	c.mu.Lock()
	hit := make(chan int)
	go func() { hit <- c.resolve([]byte{0}, compile(-1), &engineObs{}) }()
	// The hit must arrive while the lock is held, and nothing signals a
	// goroutine that is waiting for a mutex, so give it time to get there.
	time.Sleep(20 * time.Millisecond)
	c.mu.Unlock()
	if v := <-hit; v != 0 {
		t.Fatalf("hit on key 0 returned plan %d, want 0", v)
	}
	c.resolve([]byte{PlanCacheCapacity}, compile(PlanCacheCapacity), &engineObs{})
	resident := func(k byte) bool {
		for _, e := range c.entries {
			if e.key == string([]byte{k}) {
				return true
			}
		}
		return false
	}
	if !resident(0) {
		t.Fatal("key 0 was evicted although it was hit after every other key")
	}
	if resident(1) {
		t.Fatal("key 1, the least recently used, is still resident")
	}
	if _, misses := c.stats(); misses != PlanCacheCapacity+1 {
		t.Fatalf("misses = %d, want %d", misses, PlanCacheCapacity+1)
	}
}

// TestInferBatchAllocDelta pins the state-pooling contract: adding batch
// workers must cost at most a few allocations each (the spawned goroutine
// and its bookkeeping), NOT a fresh InferState per worker per call. Before
// pooling, every batch call allocated workers full states (X, Clamped,
// KeyBuf, RNG, backend scratch) and the delta was ~15 allocs per worker on
// the stub — and far more on real backends.
func TestInferBatchAllocDelta(t *testing.T) {
	_, e := newStub(64)
	obs := make([][]Observation, 16)
	for i := range obs {
		obs[i] = []Observation{{Index: i % 4, Value: 0.5}}
	}
	// Warm the plan cache and the state free-list at the largest worker
	// count so the measured runs draw every state from the pool.
	if _, err := e.InferBatch(obs, 4); err != nil {
		t.Fatal(err)
	}

	perCall := func(workers int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := e.InferBatch(obs, workers); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1 := perCall(1)
	a4 := perCall(4)
	const perWorkerBudget = 8
	if delta := a4 - a1; delta > float64((4-1)*perWorkerBudget) {
		t.Fatalf("workers=4 costs %.1f allocs/op vs %.1f at workers=1 (delta %.1f, budget %d/worker): state pooling regressed",
			a4, a1, delta, perWorkerBudget)
	}
}

// TestStatePoolRecyclesAndCapped: batch states return to the free-list and
// are reused by the next batch; the pool never grows past maxPooledStates;
// a pooled observer never leaks into the next batch.
func TestStatePoolRecyclesAndCapped(t *testing.T) {
	_, e := newStub(8)
	obs := [][]Observation{{{Index: 0, Value: 0.5}}, {{Index: 1, Value: 0.5}}}

	st := e.getState()
	st.Observer = func(StepInfo) { t.Error("pooled observer must be cleared") }
	e.putState(st)
	got := e.getState()
	if got != st {
		t.Fatal("free-list should hand back the pooled state")
	}
	if got.Observer != nil {
		t.Fatal("observer survived pooling")
	}
	e.putState(got)

	if _, err := e.InferBatch(obs, 2); err != nil {
		t.Fatal(err)
	}
	e.states.mu.Lock()
	pooled := len(e.states.items)
	e.states.mu.Unlock()
	if pooled < 2 {
		t.Fatalf("free-list holds %d states after a 2-worker batch, want >= 2", pooled)
	}

	for i := 0; i < 2*maxPooledStates; i++ {
		e.putState(e.NewInferState())
	}
	e.states.mu.Lock()
	pooled = len(e.states.items)
	e.states.mu.Unlock()
	if pooled > maxPooledStates {
		t.Fatalf("free-list grew to %d, cap is %d", pooled, maxPooledStates)
	}
}

// TestConcurrentEnsurePlanBatchAndEviction hammers one shared engine from
// three directions at once — EnsurePlan over a rotating pattern set wide
// enough to force evictions, warm InferBatch fan-outs, and single warm
// inferences — and then checks the batch output is still bit-exact
// against a sequential reference. Run under -race this doubles as the
// locking proof for the cache, its singleflight and the state pool.
func TestConcurrentEnsurePlanBatchAndEviction(t *testing.T) {
	_, e := newStub(64)
	batchObs := make([][]Observation, 8)
	for i := range batchObs {
		batchObs[i] = []Observation{{Index: 3, Value: 0.5}, {Index: 7, Value: -0.5}}
	}
	want, err := e.InferBatch(batchObs, 1)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // eviction churn: 2*PlanCacheCapacity rotating patterns
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			pat := []Observation{{Index: r % (2 * PlanCacheCapacity), Value: 0.1}}
			if err := e.EnsurePlan(pat); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() { // warm batches
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			got, err := e.InferBatch(batchObs, 4)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range got {
				for j := range got[i].Voltage {
					if got[i].Voltage[j] != want[i].Voltage[j] {
						t.Errorf("round %d window %d node %d: %v != %v",
							r, i, j, got[i].Voltage[j], want[i].Voltage[j])
						return
					}
				}
			}
		}
	}()
	go func() { // warm single inferences racing the eviction churn
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			if _, err := e.InferSeeded(batchObs[0], uint64(r)); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()

	if resident := e.PlanCacheLen(); resident > PlanCacheCapacity {
		t.Fatalf("%d plans resident, cap is %d", resident, PlanCacheCapacity)
	}
	if n := compiles(e); n < PlanCacheCapacity {
		t.Fatalf("compiles = %d; churn should have compiled at least %d patterns",
			n, PlanCacheCapacity)
	}
}

// TestResidentPatternsResolveWithoutCompiling: with the cache exactly
// full, re-resolving every resident pattern is a hit that compiles
// nothing.
func TestResidentPatternsResolveWithoutCompiling(t *testing.T) {
	_, e := newStub(32)
	var patterns [][]Observation
	for k := 0; k < PlanCacheCapacity; k++ {
		patterns = append(patterns, []Observation{{Index: k, Value: 0.25}})
	}
	for i, p := range patterns {
		if _, err := e.InferSeeded(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	compiled := compiles(e)
	// Every pattern is resident: re-resolving all of them must be pure
	// hits with zero new compiles.
	for i, p := range patterns {
		if _, err := e.InferSeeded(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := compiles(e); n != compiled {
		t.Fatalf("re-resolution compiled %d new plans, want 0", n-compiled)
	}
	hits, misses := e.PlanCacheStats()
	if misses != uint64(len(patterns)) || hits != uint64(len(patterns)) {
		t.Fatalf("hits=%d misses=%d, want %d/%d", hits, misses, len(patterns), len(patterns))
	}
}
