package verify

import (
	"math"
	"strings"
	"testing"

	"dsgl/internal/community"
	"dsgl/internal/engine"
	"dsgl/internal/mat"
	"dsgl/internal/pattern"
	"dsgl/internal/rng"
	"dsgl/internal/scalable"
	"dsgl/internal/train"
)

func TestMonotoneDescentCleanTrace(t *testing.T) {
	trace := []float64{5, 4, 3.2, 2.9, 2.9, 2.85}
	if v := MonotoneDescent(trace, DescentTol{Abs: 1e-12}); len(v) != 0 {
		t.Fatalf("clean descent flagged: %v", v)
	}
}

func TestMonotoneDescentFlagsRise(t *testing.T) {
	trace := []float64{5, 4, 4.5, 3}
	v := MonotoneDescent(trace, DescentTol{Abs: 1e-12})
	if len(v) != 1 {
		t.Fatalf("want 1 violation, got %d: %v", len(v), v)
	}
	if !strings.Contains(v[0].Detail, "trace point 2") {
		t.Fatalf("violation should name trace point 2: %s", v[0].Detail)
	}
}

func TestMonotoneDescentRippleTolerance(t *testing.T) {
	// 0.5 rise on a span of 4: within Rel=0.2 (allow 0.8), outside Rel=0.1.
	trace := []float64{5, 4, 4.5, 1}
	if v := MonotoneDescent(trace, DescentTol{Rel: 0.2}); len(v) != 0 {
		t.Fatalf("ripple within tolerance flagged: %v", v)
	}
	if v := MonotoneDescent(trace, DescentTol{Rel: 0.1}); len(v) == 0 {
		t.Fatal("ripple beyond tolerance not flagged")
	}
}

func TestMonotoneDescentNetAscent(t *testing.T) {
	// Every step within ripple tolerance, but the trace ends above start.
	trace := []float64{1, 1.3, 1.6, 1.9}
	v := MonotoneDescent(trace, DescentTol{Rel: 0.5})
	if len(v) == 0 {
		t.Fatal("net ascent not flagged")
	}
	if !strings.Contains(v[len(v)-1].Detail, "net energy ascent") {
		t.Fatalf("want net-ascent violation, got %v", v)
	}
}

func TestMonotoneDescentCapsViolations(t *testing.T) {
	trace := make([]float64, 64)
	for i := range trace {
		trace[i] = float64(i % 2) // sawtooth: a rise every other step
	}
	v := MonotoneDescent(trace, DescentTol{})
	// maxViolationsPerCheck itemized + 1 overflow summary + 1 is absorbed
	// into net-ascent only when the ends differ (they don't here: 0 -> 1).
	if len(v) > maxViolationsPerCheck+2 {
		t.Fatalf("violation list not capped: %d entries", len(v))
	}
	found := false
	for _, one := range v {
		if strings.Contains(one.Detail, "more ripple violations") {
			found = true
		}
	}
	if !found {
		t.Fatalf("overflow summary missing: %v", v)
	}
}

func TestDenseEqual(t *testing.T) {
	a := mat.NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	b := mat.NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	if v := DenseEqual("x", "J", a, b); len(v) != 0 {
		t.Fatalf("identical matrices flagged: %v", v)
	}
	b.Set(1, 0, 3+1e-15)
	if v := DenseEqual("x", "J", a, b); len(v) != 1 {
		t.Fatalf("1-ulp divergence must be flagged exactly once, got %v", v)
	}
	c := mat.NewDense(2, 3)
	if v := DenseEqual("x", "J", a, c); len(v) != 1 || !strings.Contains(v[0].Detail, "shape") {
		t.Fatalf("shape divergence not flagged: %v", v)
	}
	// NaN == NaN for bit-identity purposes.
	a.Set(0, 0, math.NaN())
	d := mat.NewDenseFrom(2, 2, []float64{math.NaN(), 2, 3, 4})
	if v := DenseEqual("x", "J", a, d); len(v) != 0 {
		t.Fatalf("NaN pair flagged: %v", v)
	}
}

func TestResultsEqual(t *testing.T) {
	a := &engine.Result{Voltage: []float64{1, 2}, LatencyNs: 10, AnnealNs: 9, Settled: true, Switches: 3, Energy: -1}
	b := &engine.Result{Voltage: []float64{1, 2}, LatencyNs: 10, AnnealNs: 9, Settled: true, Switches: 3, Energy: -1}
	if v := ResultsEqual("x", "w0", a, b); len(v) != 0 {
		t.Fatalf("identical results flagged: %v", v)
	}
	b.Voltage[1] = 2.0000001
	b.Settled = false
	v := ResultsEqual("x", "w0", a, b)
	if len(v) != 2 {
		t.Fatalf("want voltage + settled violations, got %v", v)
	}
	for _, one := range v {
		if !strings.HasPrefix(one.Detail, "w0: ") {
			t.Fatalf("violation missing label: %s", one.Detail)
		}
	}
}

// testMachine compiles a small random system for the machine-level checks.
func testMachine(t *testing.T, cfg scalable.Config) (*scalable.Machine, *train.Params) {
	t.Helper()
	const gw, gh, cap = 2, 2, 4
	n := gw * gh * cap
	a := &community.Assignment{
		PEOf:     make([]int, n),
		NodesOf:  make([][]int, gw*gh),
		GridW:    gw,
		GridH:    gh,
		Capacity: cap,
	}
	for i := 0; i < n; i++ {
		pe := i / cap
		a.PEOf[i] = pe
		a.NodesOf[pe] = append(a.NodesOf[pe], i)
	}
	r := rng.New(11)
	j := mat.NewDense(n, n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if x != y && r.Float64() < 0.4 {
				j.Set(x, y, r.NormScaled(0, 0.1))
			}
		}
	}
	mask, _ := pattern.BuildMask(a, j, pattern.Config{Kind: pattern.DMesh, Wormholes: 2})
	j.ApplyMask(mask)
	h := make([]float64, n)
	for i := range h {
		h[i] = -1
	}
	p := &train.Params{J: j, H: h}
	m, err := scalable.Build(p, a, mask, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, p
}

func TestSettledResidualOnRealAnneal(t *testing.T) {
	m, _ := testMachine(t, scalable.Config{Lanes: 30, MaxTimeNs: 5000})
	obs := []engine.Observation{{Index: 0, Value: 0.4}, {Index: 5, Value: -0.3}}
	res, err := m.Engine().InferSeeded(obs, 3)
	if err != nil {
		t.Fatal(err)
	}
	clamped := make([]bool, m.N)
	clamped[0], clamped[5] = true, true
	if v := SettledResidual(m.Engine(), res, clamped); len(v) != 0 {
		t.Fatalf("settled anneal violates residual bound: %v", v)
	}
	// A corrupted "settled" state must be flagged.
	bad := *res
	bad.Voltage = append([]float64(nil), res.Voltage...)
	for i := range bad.Voltage {
		if !clamped[i] {
			bad.Voltage[i] = 0.9
		}
	}
	bad.Settled = true
	if v := SettledResidual(m.Engine(), &bad, clamped); len(v) == 0 {
		t.Fatal("corrupted settled state not flagged")
	}
}

func TestReportOkAndFprint(t *testing.T) {
	var r Report
	r.Target = "traffic"
	r.Add(Check{Invariant: InvEnergyDescent, Name: "monotone energy descent", Detail: "3 probes"})
	r.Add(Check{Invariant: InvSettleResidual, Name: "equilibrium residual", Skipped: true, Detail: "no settled probe"})
	if !r.Ok() {
		t.Fatal("report with pass+skip must be Ok")
	}
	r.Add(Check{
		Invariant:  InvSeqParIdentity,
		Name:       "sequential/parallel bit-identity",
		Violations: []Violation{{Invariant: InvSeqParIdentity, Detail: "boom"}},
	})
	if r.Ok() {
		t.Fatal("report with a violation must not be Ok")
	}
	if n := len(r.Violations()); n != 1 {
		t.Fatalf("want 1 flattened violation, got %d", n)
	}
	var sb strings.Builder
	r.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"PASS", "SKIP", "FAIL", "boom", InvEnergyDescent} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, out)
		}
	}
}

// TestWarmStartFixedPoint drives FixedPoint as the warm-start invariant 8
// uses it.
func TestWarmStartFixedPoint(t *testing.T) {
	exact := &engine.Result{Settled: true, Voltage: []float64{0.5, -0.25, 0.75}}
	agree := &engine.Result{Settled: true, Voltage: []float64{0.5 + 5e-5, -0.25, 0.75 - 5e-5}}
	if v := FixedPoint(InvWarmStartFixedPoint, "p", exact, agree, 1e-4); len(v) != 0 {
		t.Fatalf("within-tol pair flagged: %v", v)
	}
	far := &engine.Result{Settled: true, Voltage: []float64{0.5, -0.25 + 1e-3, 0.75}}
	v := FixedPoint(InvWarmStartFixedPoint, "p", exact, far, 1e-4)
	if len(v) != 1 || !strings.Contains(v[0].Detail, "node 1") {
		t.Fatalf("out-of-tol node not flagged: %v", v)
	}
	if v[0].Invariant != InvWarmStartFixedPoint {
		t.Fatalf("invariant id = %q", v[0].Invariant)
	}
	unsettled := &engine.Result{Settled: false, Voltage: exact.Voltage, Residual: 0.1, Switches: 3}
	if v := FixedPoint(InvWarmStartFixedPoint, "p", exact, unsettled, 1e-4); len(v) != 1 ||
		!strings.Contains(v[0].Detail, "did not") {
		t.Fatalf("warm non-settle not flagged: %v", v)
	}
	// No claim when the cold reference itself did not settle.
	if v := FixedPoint(InvWarmStartFixedPoint, "p", unsettled, far, 1e-4); v != nil {
		t.Fatalf("vacuous case flagged: %v", v)
	}
	short := &engine.Result{Settled: true, Voltage: []float64{0.5}}
	if v := FixedPoint(InvWarmStartFixedPoint, "p", exact, short, 1e-4); len(v) != 1 {
		t.Fatalf("length mismatch not flagged: %v", v)
	}
	// Violation capping: every node diverges, list stays bounded.
	n := 2 * maxViolationsPerCheck
	wideA := &engine.Result{Settled: true, Voltage: make([]float64, n)}
	wideB := &engine.Result{Settled: true, Voltage: make([]float64, n)}
	for i := range wideB.Voltage {
		wideB.Voltage[i] = 1
	}
	v = FixedPoint(InvWarmStartFixedPoint, "p", wideA, wideB, 1e-4)
	if len(v) != maxViolationsPerCheck+1 {
		t.Fatalf("got %d violations, want %d capped + 1 summary", len(v), maxViolationsPerCheck+1)
	}
	if !strings.Contains(v[len(v)-1].Detail, "more node divergences") {
		t.Fatalf("missing overflow summary: %v", v[len(v)-1])
	}
}
