package engine

import (
	"math"
	"strings"
	"testing"
)

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

// tickAt runs one stream tick that clamps each index in idx to 0.1.
func tickAt(t *testing.T, s *Stream, seed uint64, idx ...int) {
	t.Helper()
	obs := make([]Observation, len(idx))
	for k, i := range idx {
		obs[k] = Observation{Index: i, Value: 0.1}
	}
	if _, err := s.Tick(obs, seed); err != nil {
		t.Fatal(err)
	}
}

// wantPlans checks how many plans e has split and how many ticks or
// inferences found theirs in the cache.
func wantPlans(t *testing.T, e *Engine, splits, hits uint64, what string) {
	t.Helper()
	if h, m := e.PlanCacheStats(); m != splits || h != hits {
		t.Fatalf("%s: %d plans split, %d cache hits; want %d, %d", what, m, h, splits, hits)
	}
	if dh, df := e.PlanDeltaStats(); dh != 0 || df != 0 {
		t.Fatalf("%s: deprecated delta counters read %d/%d, want 0/0", what, dh, df)
	}
}

// TestStreamDeltaHitOnShiftedPattern: a tick whose clamp pattern slid by
// one index splits exactly one new plan, and a repeated or resident pattern
// is a cache hit that splits nothing. (Shifted patterns were once patched
// from the predecessor's plan; every plan is now a full split.)
func TestStreamDeltaHitOnShiftedPattern(t *testing.T) {
	_, e := newStub(8)
	s := e.OpenStream()
	defer s.Close()
	tickAt(t, s, 1, 0)
	wantPlans(t, e, 1, 0, "cold tick")
	// Slide the window: one index leaves, one enters.
	tickAt(t, s, 2, 1)
	wantPlans(t, e, 2, 0, "one-bit shift")
	tickAt(t, s, 3, 1)
	wantPlans(t, e, 2, 1, "repeated pattern")
	tickAt(t, s, 4, 0)
	wantPlans(t, e, 2, 2, "return to a resident pattern")
}

// TestStreamDeltaDeclineFallsBack: a shift that moves many mask bits at once
// costs one split, the same as a one-bit shift.
func TestStreamDeltaDeclineFallsBack(t *testing.T) {
	_, e := newStub(8)
	s := e.OpenStream()
	defer s.Close()
	tickAt(t, s, 1, 0, 1, 2)
	tickAt(t, s, 2, 5, 6, 7)
	wantPlans(t, e, 2, 0, "six-bit shift")
}

// TestStreamEvictedPredecessorFallsBack: a shifted tick whose previous
// pattern was churned out of the cache still splits exactly one plan.
func TestStreamEvictedPredecessorFallsBack(t *testing.T) {
	_, e := newStub(64)
	s := e.OpenStream()
	defer s.Close()
	tickAt(t, s, 1, 0)
	// Churn the predecessor pattern out of the cache with unrelated patterns.
	for p := 0; p < PlanCacheCapacity+1; p++ {
		if _, err := e.InferSeeded([]Observation{{Index: 10 + p, Value: 0.1}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	wantPlans(t, e, PlanCacheCapacity+2, 0, "churn")
	tickAt(t, s, 2, 1)
	wantPlans(t, e, PlanCacheCapacity+3, 0, "shift from an evicted pattern")
	// The churned-out pattern is split again when it returns.
	tickAt(t, s, 3, 0)
	wantPlans(t, e, PlanCacheCapacity+4, 0, "return to an evicted pattern")
}

// TestStreamRejectedTickKeepsWarmState: a tick whose later observation is
// rejected must not write its earlier ones into the warm state, so the next
// tick runs exactly as if the rejected one had never been sent.
func TestStreamRejectedTickKeepsWarmState(t *testing.T) {
	_, e := newStub(4)
	tick := func(s *Stream, obs []Observation, seed uint64) *Result {
		t.Helper()
		res, err := s.Tick(obs, seed)
		if err != nil {
			t.Fatal(err)
		}
		return res.Detach()
	}
	first := []Observation{{Index: 0, Value: 0.5}}
	next := []Observation{{Index: 1, Value: 0.25}}
	ref := e.OpenStream()
	defer ref.Close()
	tick(ref, first, 1)
	want := tick(ref, next, 2)

	s := e.OpenStream()
	defer s.Close()
	tick(s, first, 1)
	bad := []Observation{{Index: 2, Value: 0.75}, {Index: 3, Value: 5}}
	if _, err := s.Tick(bad, 9); err == nil || !strings.Contains(err.Error(), "exceeds rail") {
		t.Fatalf("tick past the rail: got %v", err)
	}
	got := tick(s, next, 2)
	for i := range want.Voltage {
		if math.Float64bits(got.Voltage[i]) != math.Float64bits(want.Voltage[i]) {
			t.Fatalf("node %d: %v after a rejected tick, %v without it", i, got.Voltage[i], want.Voltage[i])
		}
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
	_, e := newStub(128)
	hot := []Observation{{Index: 100, Value: 0.5}, {Index: 101, Value: -0.5}}
	if _, err := e.InferSeeded(hot, 1); err != nil {
		t.Fatal(err)
	}
	if got := compiles(e); got != 1 {
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
	// The hot plan split once and every tick's pattern once: W distinct
	// patterns flowed through an 8-slot cache without evicting the hot one.
	if got := compiles(e); got != W+1 {
		t.Fatalf("sliding-mask churn split %d plans, want %d (hot plan evicted?)", got, W+1)
	}
	if n := e.PlanCacheLen(); n != PlanCacheCapacity {
		t.Fatalf("cache holds %d plans, cap %d", n, PlanCacheCapacity)
	}
}
