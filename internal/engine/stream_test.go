package engine

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
)

// deltaStub extends stubBackend with delta-compilation so the stream tests
// can pin when the engine asks for a patch versus a full compile.
type deltaStub struct {
	stubBackend
	deltas  atomic.Int64
	decline bool
}

func (d *deltaStub) CompilePlanDelta(prev any, oldClamped, newClamped []bool) any {
	d.deltas.Add(1)
	if d.decline {
		return nil
	}
	if _, ok := prev.(*stubPlan); !ok {
		return nil
	}
	pl := &stubPlan{}
	for i, c := range newClamped {
		if !c {
			pl.free = append(pl.free, i)
		}
	}
	return pl
}

func newDeltaStub(n int) (*deltaStub, *Engine) {
	b := &deltaStub{stubBackend: stubBackend{n: n, rails: 1, seed: 11}}
	return b, New(b)
}

func TestStreamFirstTickMatchesInferWith(t *testing.T) {
	_, e := newStub(6)
	obs := []Observation{{Index: 1, Value: 0.5}}
	ref, err := e.InferSeeded(obs, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Detach()
	s := e.OpenStream()
	defer s.Close()
	got, err := s.Tick(obs, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Voltage {
		if math.Float64bits(got.Voltage[i]) != math.Float64bits(want.Voltage[i]) {
			t.Fatalf("cold first tick diverges from InferSeeded at node %d: %v vs %v",
				i, got.Voltage[i], want.Voltage[i])
		}
	}
	if !s.Started() {
		t.Fatal("Started false after first tick")
	}
}

func TestStreamWarmStartKeepsSettledState(t *testing.T) {
	_, e := newStub(4)
	s := e.OpenStream()
	defer s.Close()
	r1, err := s.Tick([]Observation{{Index: 0, Value: 0.5}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 is free on both ticks: its warm init is tick 1's settled value,
	// and the stub halves every free node twice per run.
	prev := r1.Voltage[2]
	prevClamped := r1.Voltage[0]
	r2, err := s.Tick([]Observation{{Index: 1, Value: 0.25}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r2.Voltage[2], prev*0.25; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("free node not warm-started: got %v, want %v (prev %v quartered)", got, want, prev)
	}
	// Node 0 unclamped between ticks: it keeps its clamped value as init.
	if got, want := r2.Voltage[0], prevClamped*0.25; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("released node init wrong: got %v, want %v", got, want)
	}
	// Node 1 is freshly clamped and pinned.
	if r2.Voltage[1] != 0.25 {
		t.Fatalf("clamped node moved: %v", r2.Voltage[1])
	}
	// A warm tick is not a cold inference: same obs and seed from a fresh
	// random init lands elsewhere.
	cold, err := e.InferSeeded([]Observation{{Index: 1, Value: 0.25}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(cold.Voltage[2]) == math.Float64bits(r2.Voltage[2]) {
		t.Fatal("warm tick matched a cold inference; warm start did not happen")
	}
}

func TestStreamDeltaHitOnShiftedPattern(t *testing.T) {
	b, e := newDeltaStub(8)
	s := e.OpenStream()
	defer s.Close()
	if _, err := s.Tick([]Observation{{Index: 0, Value: 0.1}}, 1); err != nil {
		t.Fatal(err)
	}
	if got := b.deltas.Load(); got != 0 {
		t.Fatalf("cold tick asked for %d deltas, want 0", got)
	}
	// Slide the window: one leaves, one enters. The new pattern misses the
	// cache and resolves by patching the predecessor plan.
	if _, err := s.Tick([]Observation{{Index: 1, Value: 0.1}}, 2); err != nil {
		t.Fatal(err)
	}
	if hits, fallbacks := e.PlanDeltaStats(); hits != 1 || fallbacks != 0 {
		t.Fatalf("hits=%d fallbacks=%d after shift, want 1/0", hits, fallbacks)
	}
	if got := b.compiles.Load(); got != 1 {
		t.Fatalf("backend fully compiled %d plans, want 1 (cold tick only)", got)
	}
	// Repeating the pattern is a plain cache hit: no delta, no compile.
	if _, err := s.Tick([]Observation{{Index: 1, Value: 0.2}}, 3); err != nil {
		t.Fatal(err)
	}
	if hits, fallbacks := e.PlanDeltaStats(); hits != 1 || fallbacks != 0 {
		t.Fatalf("cache hit moved delta counters: hits=%d fallbacks=%d", hits, fallbacks)
	}
	// Sliding back to the first pattern also hits the cache.
	if _, err := s.Tick([]Observation{{Index: 0, Value: 0.3}}, 4); err != nil {
		t.Fatal(err)
	}
	if got := b.deltas.Load(); got != 1 {
		t.Fatalf("delta compiler ran %d times, want 1", got)
	}
}

func TestStreamDeltaDeclineFallsBack(t *testing.T) {
	b, e := newDeltaStub(8)
	b.decline = true
	s := e.OpenStream()
	defer s.Close()
	if _, err := s.Tick([]Observation{{Index: 0, Value: 0.1}}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick([]Observation{{Index: 1, Value: 0.1}}, 2); err != nil {
		t.Fatal(err)
	}
	if hits, fallbacks := e.PlanDeltaStats(); hits != 0 || fallbacks != 1 {
		t.Fatalf("hits=%d fallbacks=%d after declined delta, want 0/1", hits, fallbacks)
	}
	if got := b.compiles.Load(); got != 2 {
		t.Fatalf("backend compiled %d plans, want 2 (cold + fallback)", got)
	}
}

func TestStreamEvictedPredecessorFallsBack(t *testing.T) {
	b, e := newDeltaStub(64)
	s := e.OpenStream()
	defer s.Close()
	if _, err := s.Tick([]Observation{{Index: 0, Value: 0.1}}, 1); err != nil {
		t.Fatal(err)
	}
	// Churn the predecessor pattern out of the LRU with unrelated patterns.
	for p := 0; p < PlanCacheCapacity+1; p++ {
		if _, err := e.InferSeeded([]Observation{{Index: 10 + p, Value: 0.1}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Tick([]Observation{{Index: 1, Value: 0.1}}, 2); err != nil {
		t.Fatal(err)
	}
	if hits, fallbacks := e.PlanDeltaStats(); hits != 0 || fallbacks != 1 {
		t.Fatalf("hits=%d fallbacks=%d with evicted predecessor, want 0/1", hits, fallbacks)
	}
	if got := b.deltas.Load(); got != 0 {
		t.Fatalf("delta compiler ran %d times against an evicted predecessor, want 0", got)
	}
}

func TestStreamNonDeltaBackendNeverCountsDeltas(t *testing.T) {
	b, e := newStub(8)
	s := e.OpenStream()
	defer s.Close()
	for i := 0; i < 3; i++ {
		if _, err := s.Tick([]Observation{{Index: i, Value: 0.1}}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if hits, fallbacks := e.PlanDeltaStats(); hits != 0 || fallbacks != 0 {
		t.Fatalf("plain backend moved delta counters: hits=%d fallbacks=%d", hits, fallbacks)
	}
	if got := b.compiles.Load(); got != 3 {
		t.Fatalf("backend compiled %d plans, want 3", got)
	}
}

func TestStreamClosedAndForeign(t *testing.T) {
	_, e1 := newStub(4)
	_, e2 := newStub(4)
	s := e1.OpenStream()
	s.Close()
	s.Close() // idempotent
	if _, err := s.Tick(nil, 1); err == nil || !strings.Contains(err.Error(), "closed stream") {
		t.Fatalf("closed stream: got %v", err)
	}
	// A stream runs on the engine that opened it and no other.
	s2 := e1.OpenStream()
	defer s2.Close()
	if s2.Engine() != e1 {
		t.Fatal("stream reports a foreign engine")
	}
	if _, err := s2.Tick([]Observation{{Index: 0, Value: 0.5}}, 1); err != nil {
		t.Fatal(err)
	}
	if hits, misses := e2.PlanCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("tick on e1's stream touched e2's plan cache: hits=%d misses=%d", hits, misses)
	}
	if _, misses := e1.PlanCacheStats(); misses != 1 {
		t.Fatalf("tick did not resolve its plan on e1: misses=%d", misses)
	}
}

func TestStreamTickValidatesObservations(t *testing.T) {
	_, e := newStub(4)
	s := e.OpenStream()
	defer s.Close()
	if _, err := s.Tick([]Observation{{Index: 9, Value: 0}}, 1); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("bad observation: got %v", err)
	}
}

// TestStreamHotPlanSurvivesSlidingMaskChurn is the capacity-pressure
// regression for the plan LRU: a sliding streaming mask mints one new
// pattern per tick, and that churn must not evict a hot spatial plan that
// keeps being used between ticks. Recency bumps on cache hits are what
// keeps it resident; if they regress, the hot pattern recompiles.
func TestStreamHotPlanSurvivesSlidingMaskChurn(t *testing.T) {
	b, e := newDeltaStub(128)
	hot := []Observation{{Index: 100, Value: 0.5}, {Index: 101, Value: -0.5}}
	if _, err := e.InferSeeded(hot, 1); err != nil {
		t.Fatal(err)
	}
	if got := b.compiles.Load(); got != 1 {
		t.Fatalf("hot pattern compiled %d times, want 1", got)
	}
	s := e.OpenStream()
	defer s.Close()
	const W = 3 * PlanCacheCapacity
	for w := 0; w < W; w++ {
		if _, err := s.Tick([]Observation{{Index: w, Value: 0.1}}, uint64(w)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.InferSeeded(hot, uint64(w)); err != nil {
			t.Fatal(err)
		}
	}
	// Full compiles: the hot plan once, the stream's cold first tick once.
	// Every later tick resolved its fresh pattern by delta, and the hot
	// pattern never recompiled despite W distinct patterns flowing through
	// an 8-slot cache.
	if got := b.compiles.Load(); got != 2 {
		t.Fatalf("sliding-mask churn forced %d full compiles, want 2 (hot plan evicted?)", got)
	}
	hits, fallbacks := e.PlanDeltaStats()
	if fallbacks != 0 {
		t.Fatalf("%d delta fallbacks during churn, want 0", fallbacks)
	}
	if hits != W-1 {
		t.Fatalf("delta hits %d, want %d", hits, W-1)
	}
	if n := e.PlanCacheLen(); n != PlanCacheCapacity {
		t.Fatalf("cache holds %d plans, cap %d", n, PlanCacheCapacity)
	}
}
