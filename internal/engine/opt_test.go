package engine

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"dsgl/internal/obs"
)

// stubOptBackend is a deterministic toy solver: each "step" draws a random
// spin vector and keeps the best under a diagonal objective. Good enough to
// pin the engine-side contract — seeding, fan-out identity, ladder
// sharing, pooling, observer dispatch — without any real dynamics.
type stubOptBackend struct {
	n    int
	seed uint64
	fail bool // when set, every RunSolve errors
	// energy, when non-nil, replaces every restart's reported energy.
	energy func() float64

	// ladders holds every distinct ladder RunSolve was handed.
	mu      sync.Mutex
	ladders map[*Ladder]bool
}

func (b *stubOptBackend) Name() string     { return "stub-opt" }
func (b *stubOptBackend) Dim() int         { return b.n }
func (b *stubOptBackend) BaseSeed() uint64 { return b.seed }

func (b *stubOptBackend) AttachSolveState(st *SolveState) {
	st.Scratch = make([]int8, b.n)
}

func (b *stubOptBackend) EnergyOf(s []int8) float64 {
	e := 0.0
	for i, si := range s {
		e += float64(i+1) * float64(si)
	}
	return e
}

func (b *stubOptBackend) RunSolve(st *SolveState, l *Ladder) (*OptResult, error) {
	if b.fail {
		return nil, errors.New("stub-opt: injected failure")
	}
	b.mu.Lock()
	if b.ladders == nil {
		b.ladders = map[*Ladder]bool{}
	}
	b.ladders[l] = true
	b.mu.Unlock()
	cand := st.Scratch.([]int8)
	best := math.Inf(1)
	for k := range l.Temps {
		for i := range cand {
			if st.RNG.Float64() < 0.5 {
				cand[i] = -1
			} else {
				cand[i] = 1
			}
		}
		copy(st.Spins, cand)
		if e := b.EnergyOf(cand); e < best {
			best = e
			copy(st.Res.Spins, cand)
			st.Res.BestStep = k
		}
		if st.Observer != nil {
			st.Observer(StepInfo{Step: k, EnergyFn: st.EnergyFn})
		}
	}
	st.Res.Energy = best
	if b.energy != nil {
		st.Res.Energy = b.energy()
	}
	st.Res.Steps = l.Sched.Steps
	return &st.Res, nil
}

// TestSolveFromRejectsIncomparableEnergies: when no restart reports an
// energy below +Inf there is no best restart, and SolveFrom must say so
// instead of returning a run whose Best is nil. With metrics on, the same
// run must not reach the best-energy gauge either.
func TestSolveFromRejectsIncomparableEnergies(t *testing.T) {
	cases := []struct {
		name   string
		energy float64
		ok     bool
	}{
		{"finite", -3, true},
		{"NaN", math.NaN(), false},
		{"+Inf", math.Inf(1), false},
		{"-Inf", math.Inf(-1), true},
	}
	for _, c := range cases {
		for _, metrics := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/metrics=%v", c.name, metrics), func(t *testing.T) {
				if metrics {
					prev := obs.Default()
					obs.SetDefault(obs.NewRegistry())
					t.Cleanup(func() { obs.SetDefault(prev) })
				}
				b := &stubOptBackend{n: 4, seed: 1, energy: func() float64 { return c.energy }}
				run, err := NewOpt(b).SolveFrom(GeometricSchedule(3, 2, 0.1), 1, 3, 2)
				if c.ok {
					if err != nil || run.Best == nil {
						t.Fatalf("SolveFrom = %v, %v; want a run with a best restart", run, err)
					}
					return
				}
				if err == nil {
					t.Fatalf("SolveFrom returned %+v with no error; want an error", run)
				}
			})
		}
	}
}

func TestScheduleValidate(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
		ok   bool
	}{
		{"linear ok", LinearSchedule(10, 2, 0.1), true},
		{"geometric ok", GeometricSchedule(10, 2, 0.1), true},
		{"adaptive ok", AdaptiveSchedule(10, 2, 0.1, 3, 0.5), true},
		{"bad kind", Schedule{Kind: "banana", Steps: 10, T0: 2, T1: 0.1}, false},
		{"zero steps", GeometricSchedule(0, 2, 0.1), false},
		{"zero T0", GeometricSchedule(10, 0, 0.1), false},
		{"zero T1", GeometricSchedule(10, 2, 0), false},
		{"heating", GeometricSchedule(10, 1, 2), false},
		{"adaptive zero period", AdaptiveSchedule(10, 2, 0.1, 0, 0.5), false},
		{"adaptive zero reheat", AdaptiveSchedule(10, 2, 0.1, 3, 0), false},
	}
	for _, c := range cases {
		if err := c.s.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestScheduleValidateRejectsInfiniteTemperatures: a schedule that would
// anneal some restart on an infinite temperature (its ladder reads +Inf,
// then NaN) is refused, while the defaults and a reheat that stays finite
// are not.
func TestScheduleValidateRejectsInfiniteTemperatures(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		s    Schedule
		ok   bool
	}{
		{"geometric T0 +Inf (dsgl opt -t0 +Inf)", GeometricSchedule(20, inf, 0.05), false},
		{"adaptive start overflows (dsgl opt -t0 1e300 -reheat 1e10)", AdaptiveSchedule(20, 1e300, 0.05, 4, 1e10), false},
		{"linear T0 = T1 = +Inf", LinearSchedule(20, inf, inf), false},
		{"geometric T1 +Inf", GeometricSchedule(20, inf, inf), false},
		{"adaptive Reheat +Inf, Period 2", AdaptiveSchedule(20, 2, 0.05, 2, inf), false},
		{"defaults", GeometricSchedule(200, 2, 0.05), true},
		{"adaptive defaults", AdaptiveSchedule(200, 2, 0.05, 4, 0.5), true},
		{"adaptive Reheat 2, Period 4", AdaptiveSchedule(20, 2, 0.05, 4, 2), true},
	}
	for _, c := range cases {
		if err := c.s.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestScheduleLadderEndpoints(t *testing.T) {
	for _, s := range []Schedule{LinearSchedule(17, 3, 0.2), GeometricSchedule(17, 3, 0.2)} {
		if got := s.At(0); got != s.T0 {
			t.Errorf("%s At(0) = %g, want T0=%g", s.Kind, got, s.T0)
		}
		if got := s.At(s.Steps - 1); math.Abs(got-s.T1) > 1e-12 {
			t.Errorf("%s At(last) = %g, want T1=%g", s.Kind, got, s.T1)
		}
		for k := 1; k < s.Steps; k++ {
			if s.At(k) > s.At(k-1)+1e-15 {
				t.Fatalf("%s ladder heats at step %d: %g -> %g", s.Kind, k, s.At(k-1), s.At(k))
			}
		}
	}
}

func TestScheduleForRestart(t *testing.T) {
	g := GeometricSchedule(10, 2, 0.1)
	if g.ForRestart(5) != g {
		t.Error("non-adaptive schedule must be restart-invariant")
	}
	a := AdaptiveSchedule(10, 2, 0.1, 3, 0.5)
	if got := a.ForRestart(0).T0; got != 2 {
		t.Errorf("restart 0 T0 = %g, want 2", got)
	}
	if got := a.ForRestart(1).T0; math.Abs(got-1) > 1e-12 {
		t.Errorf("restart 1 T0 = %g, want 1 (2*0.5)", got)
	}
	if got := a.ForRestart(2).T0; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("restart 2 T0 = %g, want 0.5", got)
	}
	// Cycle: restart 3 back to full heat.
	if got := a.ForRestart(3).T0; got != 2 {
		t.Errorf("restart 3 T0 = %g, want cycle back to 2", got)
	}
	// Clamped at T1.
	deep := AdaptiveSchedule(10, 2, 0.1, 10, 0.1)
	if got := deep.ForRestart(5).T0; got != deep.T1 {
		t.Errorf("deep reheat T0 = %g, want clamp at T1=%g", got, deep.T1)
	}
}

// TestOptSoloVsFanoutBitIdentity pins the seeding convention: a parallel
// multi-restart Solve must be bit-identical to sequential SolveSeeded calls
// at BaseSeed()+i, for every worker count.
func TestOptSoloVsFanoutBitIdentity(t *testing.T) {
	const restarts = 6
	sched := AdaptiveSchedule(12, 2, 0.1, 3, 0.5)

	solo := make([]*OptResult, restarts)
	{
		e := NewOpt(&stubOptBackend{n: 16, seed: 40})
		for i := range solo {
			res, err := e.SolveSeeded(sched.ForRestart(i), 40+uint64(i))
			if err != nil {
				t.Fatalf("solo restart %d: %v", i, err)
			}
			solo[i] = res
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		e := NewOpt(&stubOptBackend{n: 16, seed: 40})
		run, err := e.SolveFrom(sched, e.BaseSeed(), restarts, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, want := range solo {
			if run.Energies[i] != want.Energy {
				t.Errorf("workers=%d restart %d energy %g, want solo %g", workers, i, run.Energies[i], want.Energy)
			}
		}
		bestIdx, best := 0, math.Inf(1)
		for i, w := range solo {
			if w.Energy < best {
				best, bestIdx = w.Energy, i
			}
		}
		if run.BestRestart != bestIdx || run.Best.Energy != best {
			t.Errorf("workers=%d best (restart %d, %g), want (restart %d, %g)",
				workers, run.BestRestart, run.Best.Energy, bestIdx, best)
		}
		if !reflect.DeepEqual(run.Best.Spins, solo[bestIdx].Spins) {
			t.Errorf("workers=%d best spins differ from solo", workers)
		}
	}
}

func TestOptRunBestTraceMonotone(t *testing.T) {
	e := NewOpt(&stubOptBackend{n: 12, seed: 7})
	run, err := e.SolveFrom(GeometricSchedule(8, 2, 0.1), e.BaseSeed(), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for i, en := range run.Energies {
		if en < best {
			best = en
		}
		if run.BestTrace[i] != best {
			t.Errorf("BestTrace[%d] = %g, want running min %g", i, run.BestTrace[i], best)
		}
	}
	if run.Best.Energy != run.BestTrace[len(run.BestTrace)-1] {
		t.Errorf("Best.Energy %g != final trace %g", run.Best.Energy, run.BestTrace[len(run.BestTrace)-1])
	}
	if run.Steps != 8*8 {
		t.Errorf("run.Steps = %d, want 64", run.Steps)
	}
}

// TestOptPlanCacheAcrossRestarts: SolveFrom compiles each distinct
// restart schedule's ladder once and shares it across the restarts that
// anneal under it: one ladder for a non-adaptive batch, one per reheat
// phase for an adaptive one, and no more than there are restarts.
func TestOptPlanCacheAcrossRestarts(t *testing.T) {
	cases := []struct {
		name     string
		sched    Schedule
		restarts int
		want     int
	}{
		{"geometric", GeometricSchedule(5, 2, 0.1), 8, 1},
		{"adaptive period 3", AdaptiveSchedule(5, 2, 0.1, 3, 0.5), 9, 3},
		{"adaptive period 3, 2 restarts", AdaptiveSchedule(5, 2, 0.1, 3, 0.5), 2, 2},
	}
	for _, c := range cases {
		b := &stubOptBackend{n: 8, seed: 1}
		e := NewOpt(b)
		if _, err := e.SolveFrom(c.sched, e.BaseSeed(), c.restarts, 4); err != nil {
			t.Fatal(err)
		}
		if got := len(b.ladders); got != c.want {
			t.Errorf("%s: %d restarts ran under %d distinct ladders, want %d", c.name, c.restarts, got, c.want)
		}
		want := map[Schedule]bool{}
		for i := 0; i < c.restarts; i++ {
			want[c.sched.ForRestart(i)] = true
		}
		for l := range b.ladders {
			if !want[l.Sched] {
				t.Errorf("%s: ladder for %+v matches no restart's schedule", c.name, l.Sched)
			}
		}
	}
}

func TestOptStatePooling(t *testing.T) {
	e := NewOpt(&stubOptBackend{n: 8, seed: 1})
	sched := GeometricSchedule(3, 2, 0.1)
	if _, err := e.SolveFrom(sched, e.BaseSeed(), 4, 2); err != nil {
		t.Fatal(err)
	}
	e.states.mu.Lock()
	pooled := len(e.states.items)
	e.states.mu.Unlock()
	if pooled != 2 {
		t.Fatalf("pooled states after first batch = %d, want 2", pooled)
	}
	if _, err := e.SolveFrom(sched, e.BaseSeed(), 4, 2); err != nil {
		t.Fatal(err)
	}
	e.states.mu.Lock()
	pooled = len(e.states.items)
	e.states.mu.Unlock()
	if pooled != 2 {
		t.Errorf("pooled states after second batch = %d, want 2 (recycled, not grown)", pooled)
	}
}

func TestOptObserverAndEnergyFn(t *testing.T) {
	e := NewOpt(&stubOptBackend{n: 6, seed: 3})
	st := e.NewSolveState()
	var trace BestEnergyTrace
	trace.Reset()
	st.SetObserver(trace.Observer())
	res, err := e.SolveWith(st, GeometricSchedule(10, 2, 0.1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Trace) != 10 {
		t.Fatalf("observer fired %d times, want 10", len(trace.Trace))
	}
	for i := 1; i < len(trace.Trace); i++ {
		if trace.Trace[i] > trace.Trace[i-1] {
			t.Fatalf("best-energy trace increases at %d: %g -> %g", i, trace.Trace[i-1], trace.Trace[i])
		}
	}
	if trace.Best != res.Energy {
		t.Errorf("trace best %g != restart best %g", trace.Best, res.Energy)
	}
}

func TestOptObserverStrippedOnPooling(t *testing.T) {
	e := NewOpt(&stubOptBackend{n: 6, seed: 3})
	st := e.getState()
	st.SetObserver(func(StepInfo) { t.Error("stale observer fired on recycled state") })
	e.putState(st)
	if _, err := e.SolveFrom(GeometricSchedule(4, 2, 0.1), e.BaseSeed(), 1, 1); err != nil {
		t.Fatal(err)
	}
}

func TestOptErrorPropagation(t *testing.T) {
	e := NewOpt(&stubOptBackend{n: 6, seed: 3})
	if _, err := e.SolveFrom(Schedule{Kind: "nope", Steps: 4, T0: 2, T1: 0.1}, e.BaseSeed(), 2, 1); err == nil {
		t.Error("invalid schedule must error")
	}
	st := e.NewSolveState()
	other := NewOpt(&stubOptBackend{n: 6, seed: 3})
	if _, err := other.SolveWith(st, GeometricSchedule(4, 2, 0.1), 1); err == nil {
		t.Error("foreign SolveState must be rejected")
	}
}

func TestOptRunSolveErrorSurfaces(t *testing.T) {
	e := NewOpt(&stubOptBackend{n: 6, seed: 9, fail: true})
	if _, err := e.SolveFrom(GeometricSchedule(6, 2, 0.1), e.BaseSeed(), 4, 2); err == nil {
		t.Error("restart error must fail the batch")
	} else if got := err.Error(); got != "stub-opt: injected failure" {
		t.Errorf("unexpected error %q", got)
	}
}

func TestOptResultDetach(t *testing.T) {
	e := NewOpt(&stubOptBackend{n: 4, seed: 5})
	st := e.NewSolveState()
	res, err := e.SolveWith(st, GeometricSchedule(3, 2, 0.1), 5)
	if err != nil {
		t.Fatal(err)
	}
	det := res.Detach()
	res.Spins[0] = -res.Spins[0]
	if det.Spins[0] == res.Spins[0] {
		t.Error("Detach must deep-copy spins")
	}
}

func ExampleOptEngine_SolveFrom() {
	e := NewOpt(&stubOptBackend{n: 4, seed: 11})
	run, err := e.SolveFrom(GeometricSchedule(20, 2, 0.1), e.BaseSeed(), 4, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println(run.Restarts, run.Best.Energy == run.BestTrace[3])
	// Output: 4 true
}
