package dspu

import (
	"math"
	"testing"
	"testing/quick"

	"dsgl/internal/engine"
	"dsgl/internal/mat"
	"dsgl/internal/rng"
)

func chainDSPU(t *testing.T, n int, w float64, cfg Config) *DSPU {
	t.Helper()
	j := mat.NewDense(n, n)
	for i := 0; i+1 < n; i++ {
		j.Set(i, i+1, w)
		j.Set(i+1, i, w)
	}
	h := make([]float64, n)
	for i := range h {
		h[i] = -1
	}
	d, err := New(j, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewRejectsBadParams(t *testing.T) {
	diag := mat.NewDense(2, 2)
	diag.Set(0, 0, 1)
	for _, tc := range []struct {
		name string
		j    *mat.Dense
		h    []float64
	}{
		{"non-negative-h", mat.NewDense(2, 2), []float64{-1, 0}},
		{"positive-h", mat.NewDense(2, 2), []float64{-1, 0.5}},
		{"diagonal-J", diag, []float64{-1, -1}},
		{"non-square-J", mat.NewDense(2, 3), []float64{-1, -1}},
		{"len-h-mismatch", mat.NewDense(2, 2), []float64{-1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.j, tc.h, Config{}); err == nil {
				t.Error("New accepted it")
			}
		})
	}
}

// stepUnfolded takes steps forward-Euler steps of dt ns from x in place on
// the unfolded plan of clamped, the step TraceRun and the Naive path take.
func stepUnfolded(d *DSPU, x []float64, clamped []bool, steps int, dt float64) {
	ps := d.unfoldedSys(clamped, x)
	for s := 0; s < steps; s++ {
		ps.step(x, dt)
	}
}

// TestQuadraticFixedPoint verifies Eq. 5 on the Euler step itself: with
// node 0 clamped to v, node 1 settles at -J*v/h1, for an h1 other than -1.
func TestQuadraticFixedPoint(t *testing.T) {
	j := mat.NewDense(2, 2)
	j.Set(0, 1, 0.8)
	j.Set(1, 0, 0.8)
	d, err := New(j, []float64{-1, -2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.5, 0}
	stepUnfolded(d, x, []bool{true, false}, 4000, 0.01)
	want := -0.8 * 0.5 / -2 // = 0.2
	if math.Abs(x[1]-want) > 1e-6 {
		t.Fatalf("node 1 settled at %g, want %g", x[1], want)
	}
	if x[0] != 0.5 {
		t.Fatalf("clamped node moved to %g", x[0])
	}
}

// TestEnergyMonotoneDescent verifies the Lyapunov property (Eq. 6): free
// evolution under the Euler step never increases H_RV.
func TestEnergyMonotoneDescent(t *testing.T) {
	r := rng.New(42)
	n := 12
	j := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for k := i + 1; k < n; k++ {
			v := r.NormScaled(0, 0.3)
			j.Set(i, k, v)
			j.Set(k, i, v)
		}
	}
	h := make([]float64, n)
	for i := range h {
		h[i] = -2 // strongly convex so the quadratic term dominates
	}
	d, err := New(j, h, Config{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	r.FillUniform(x, -0.9, 0.9)
	ps := d.unfoldedSys(make([]bool, n), x)
	prev := d.Engine().EnergyAt(x)
	for s := 0; s < 2000; s++ {
		ps.step(x, 0.005)
		e := d.Engine().EnergyAt(x)
		if e > prev+1e-9 {
			t.Fatalf("energy increased at step %d: %g -> %g", s, prev, e)
		}
		prev = e
	}
}

// TestEquilibriumMatchesODE checks the Gauss–Seidel oracle against a long
// Euler integration of a sparse, asymmetric J with two clamped nodes.
func TestEquilibriumMatchesODE(t *testing.T) {
	r := rng.New(7)
	n := 8
	j := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if i != k && r.Float64() < 0.5 {
				j.Set(i, k, r.NormScaled(0, 0.2))
			}
		}
	}
	h := make([]float64, n)
	for i := range h {
		h[i] = -1.5
	}
	d, err := New(j, h, Config{})
	if err != nil {
		t.Fatal(err)
	}
	clamped := make([]bool, n)
	clamped[0], clamped[1] = true, true
	x := make([]float64, n)
	x[0], x[1] = 0.4, -0.3
	eq := gaussSeidel(j, h, x, clamped, 200)

	xo := mat.CopyVec(x)
	stepUnfolded(d, xo, clamped, 20000, 0.01)
	for i := 0; i < n; i++ {
		if math.Abs(eq[i]-xo[i]) > 1e-4 {
			t.Fatalf("node %d: Gauss-Seidel %g vs ODE %g", i, eq[i], xo[i])
		}
	}
}

func TestInferTwoNodeFixedPoint(t *testing.T) {
	d := chainDSPU(t, 2, 0.6, Config{})
	res, err := d.Engine().InferSeeded([]engine.Observation{{Index: 0, Value: 0.5}}, d.BaseSeed())
	if err != nil {
		t.Fatal(err)
	}
	want := 0.6 * 0.5 // -J v / h with h = -1
	if math.Abs(res.Voltage[1]-want) > 1e-4 {
		t.Fatalf("node 1 = %g, want %g", res.Voltage[1], want)
	}
	if !res.Settled {
		t.Fatal("simple system should settle within default budget")
	}
	if res.Voltage[0] != 0.5 {
		t.Fatalf("clamped node moved: %g", res.Voltage[0])
	}
}

func TestInferMatchesGaussSeidelEquilibrium(t *testing.T) {
	r := rng.New(21)
	n := 16
	j := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if i != k && r.Float64() < 0.4 {
				j.Set(i, k, r.NormScaled(0, 0.15))
			}
		}
	}
	h := make([]float64, n)
	for i := range h {
		h[i] = -1.2
	}
	d, err := New(j, h, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	obs := []engine.Observation{{Index: 0, Value: 0.3}, {Index: 1, Value: -0.4}, {Index: 2, Value: 0.1}}
	res, err := d.Engine().InferSeeded(obs, d.BaseSeed())
	if err != nil {
		t.Fatal(err)
	}
	clamped := make([]bool, n)
	x := make([]float64, n)
	for _, o := range obs {
		x[o.Index] = o.Value
		clamped[o.Index] = true
	}
	eq := gaussSeidel(j, h, x, clamped, 500)
	for i := 0; i < n; i++ {
		if math.Abs(res.Voltage[i]-eq[i]) > 1e-3 {
			t.Fatalf("node %d: annealed %g vs equilibrium %g", i, res.Voltage[i], eq[i])
		}
	}
}

// gaussSeidel is the analytic fixed point of the clamped quadratic system:
// it solves (diag(h) + J)σ = 0 on the free nodes, with the clamped values
// of x as boundary conditions, by Gauss–Seidel sweeps (the contraction the
// physics performs), holding each value to the rails. It is the oracle the
// annealed fixed points are checked against.
func gaussSeidel(j *mat.Dense, h, x []float64, clamped []bool, iters int) []float64 {
	out := mat.CopyVec(x)
	for it := 0; it < iters; it++ {
		for i := range out {
			if clamped[i] {
				continue
			}
			var s float64
			for k := range out {
				s += j.At(i, k) * out[k]
			}
			out[i] = math.Max(-vRail, math.Min(vRail, -s/h[i]))
		}
	}
	return out
}

// derivativeAt evaluates the DSPU's node derivative at x on the unfolded
// plan of clamped; clamped entries of the result are zero.
func derivativeAt(d *DSPU, x []float64, clamped []bool) []float64 {
	ps := d.unfoldedSys(clamped, x)
	ps.derivative(x)
	return ps.deriv
}

// TestRailsStopOutwardCurrent: a node on a rail takes only inward current.
func TestRailsStopOutwardCurrent(t *testing.T) {
	j := mat.NewDense(2, 2)
	j.Set(0, 1, 2)
	j.Set(1, 0, 2)
	d, err := New(j, []float64{-0.5, -0.5}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	clamped := []bool{true, false}
	for _, tc := range []struct {
		x    []float64
		want float64
	}{
		{[]float64{1, 1}, 0},        // the coupling pushes node 1 past +1
		{[]float64{-1, -1}, 0},      // ... and past -1
		{[]float64{-1, 1}, -2.5},    // inward current moves it off +1
		{[]float64{0.5, 0.5}, 0.75}, // off the rails nothing is stopped
	} {
		if got := derivativeAt(d, tc.x, clamped)[1]; got != tc.want {
			t.Errorf("x=%v: dσ1/dt = %g, want %g", tc.x, got, tc.want)
		}
	}
}

// TestDerivativeMatchesEnergyGradient: off the rails, the node derivative
// of a symmetric DSPU is the negative gradient of EnergyAt (dσ/dt =
// -(1/C) ∂H/∂σ with C = 1).
func TestDerivativeMatchesEnergyGradient(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(uint64(seed))
		n := 5
		j := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			for k := i + 1; k < n; k++ {
				v := r.NormScaled(0, 0.3)
				j.Set(i, k, v)
				j.Set(k, i, v)
			}
		}
		h := make([]float64, n)
		for i := range h {
			h[i] = -1 - r.Float64()
		}
		d, err := New(j, h, Config{})
		if err != nil {
			return false
		}
		x := make([]float64, n)
		r.FillUniform(x, -0.5, 0.5)
		deriv := derivativeAt(d, x, make([]bool, n))
		const eps = 1e-6
		for i := 0; i < n; i++ {
			xp := mat.CopyVec(x)
			xm := mat.CopyVec(x)
			xp[i] += eps
			xm[i] -= eps
			fd := (d.Engine().EnergyAt(xp) - d.Engine().EnergyAt(xm)) / (2 * eps)
			if math.Abs(deriv[i]+fd) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestInferValidation(t *testing.T) {
	d := chainDSPU(t, 3, 0.5, Config{})
	if _, err := d.Engine().InferSeeded([]engine.Observation{{Index: 9, Value: 0}}, d.BaseSeed()); err == nil {
		t.Fatal("expected error for out-of-range index")
	}
	if _, err := d.Engine().InferSeeded([]engine.Observation{{Index: 0, Value: 5}}, d.BaseSeed()); err == nil {
		t.Fatal("expected error for value beyond rails")
	}
}

func TestInferDeterministicWithSeed(t *testing.T) {
	mk := func() float64 {
		d := chainDSPU(t, 8, 0.3, Config{Seed: 77})
		res, err := d.Engine().InferSeeded([]engine.Observation{{Index: 0, Value: 0.5}}, d.BaseSeed())
		if err != nil {
			t.Fatal(err)
		}
		return res.Voltage[7]
	}
	if mk() != mk() {
		t.Fatal("same seed must reproduce inference")
	}
}

func TestLatencyReported(t *testing.T) {
	d := chainDSPU(t, 4, 0.5, Config{MaxTimeNs: 50})
	res, err := d.Engine().InferSeeded([]engine.Observation{{Index: 0, Value: 0.5}}, d.BaseSeed())
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyNs <= 0 || res.LatencyNs > 50+1e-9 {
		t.Fatalf("latency %g out of range", res.LatencyNs)
	}
	if res.Steps <= 0 {
		t.Fatal("no steps recorded")
	}
}

func TestEnergyDecreasesDuringInference(t *testing.T) {
	d := chainDSPU(t, 6, 0.4, Config{Seed: 3})
	// The engine inits free nodes uniform in [-0.1, 0.1) from the request
	// seed alone; replaying that draw gives the starting energy.
	x0 := make([]float64, 6)
	rng.New(3).FillUniform(x0, -0.1, 0.1)
	e0 := d.Engine().EnergyAt(x0)
	res, err := d.Engine().InferSeeded(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy > e0 {
		t.Fatalf("energy rose: %g -> %g", e0, res.Energy)
	}
}

func TestTraceRunSampling(t *testing.T) {
	d := chainDSPU(t, 3, 0.5, Config{})
	x0 := make([]float64, 3)
	tr, err := d.TraceRun(x0, []engine.Observation{{Index: 0, Value: 0.5}}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.TimesNs) < 10 || len(tr.TimesNs) != len(tr.States) {
		t.Fatalf("trace has %d samples", len(tr.TimesNs))
	}
	if tr.TimesNs[0] != 0 {
		t.Fatal("trace must start at t=0")
	}
	// Clamped node constant across the trace.
	for _, st := range tr.States {
		if st[0] != 0.5 {
			t.Fatalf("clamped node drifted: %g", st[0])
		}
	}
}
