package dspu

import (
	"math"
	"testing"

	"dsgl/internal/engine"
	"dsgl/internal/mat"
	"dsgl/internal/ode"
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
	j := mat.NewDense(2, 2)
	if _, err := New(j, []float64{-1, 0}, Config{}); err == nil {
		t.Fatal("expected error for non-negative h")
	}
	j.Set(0, 0, 1)
	if _, err := New(j, []float64{-1, -1}, Config{}); err == nil {
		t.Fatal("expected error for diagonal J")
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
	// Inference no longer mutates the shared network's clamp mask, so the
	// reference Gauss-Seidel solve must pin the observed nodes itself.
	x := make([]float64, n)
	for _, o := range obs {
		x[o.Index] = o.Value
		d.Net.Clamped[o.Index] = true
	}
	eq := d.Net.Equilibrium(x, 500)
	for i := 0; i < n; i++ {
		if math.Abs(res.Voltage[i]-eq[i]) > 1e-3 {
			t.Fatalf("node %d: annealed %g vs equilibrium %g", i, res.Voltage[i], eq[i])
		}
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
	e0 := d.EnergyAt(x0)
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

func TestRK4IntegratorOption(t *testing.T) {
	j := mat.NewDense(2, 2)
	j.Set(0, 1, 0.6)
	j.Set(1, 0, 0.6)
	d, err := New(j, []float64{-1, -1}, Config{Integrator: ode.NewRK4()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Engine().InferSeeded([]engine.Observation{{Index: 0, Value: 0.5}}, d.BaseSeed())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Voltage[1]-0.3) > 1e-4 {
		t.Fatalf("RK4 fixed point %g, want 0.3", res.Voltage[1])
	}
}
