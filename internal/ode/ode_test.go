package ode

import (
	"math"
	"testing"
)

// decay is dx/dt = -k x with known solution x(t) = x0 e^{-kt}.
type decay struct{ k float64 }

func (d decay) Dim() int { return 1 }
func (d decay) Derivative(_ float64, x, dst []float64) {
	dst[0] = -d.k * x[0]
}

// oscillator is the harmonic oscillator x” = -x as a 2-D system, with
// conserved energy x² + v².
type oscillator struct{}

func (oscillator) Dim() int { return 2 }
func (oscillator) Derivative(_ float64, x, dst []float64) {
	dst[0] = x[1]
	dst[1] = -x[0]
}

// step advances x by steps integrator steps of size dt from t = 0.
func step(ig Integrator, sys System, dt float64, steps int, x []float64) {
	t := 0.0
	for s := 0; s < steps; s++ {
		t = ig.Step(sys, t, dt, x)
	}
}

func TestEulerDecay(t *testing.T) {
	sys := decay{k: 1}
	x := []float64{1}
	step(NewEuler(), sys, 0.001, 1000, x)
	want := math.Exp(-1)
	if math.Abs(x[0]-want) > 1e-3 {
		t.Fatalf("Euler decay: got %g, want %g", x[0], want)
	}
}

func TestRK4Decay(t *testing.T) {
	sys := decay{k: 1}
	x := []float64{1}
	step(NewRK4(), sys, 0.01, 100, x)
	want := math.Exp(-1)
	if math.Abs(x[0]-want) > 1e-8 {
		t.Fatalf("RK4 decay: got %g, want %g (err %g)", x[0], want, x[0]-want)
	}
}

func TestRK4OrderBeatsEuler(t *testing.T) {
	want := math.Exp(-1)
	xe := []float64{1}
	step(NewEuler(), decay{k: 1}, 0.01, 100, xe)
	xr := []float64{1}
	step(NewRK4(), decay{k: 1}, 0.01, 100, xr)
	errE := math.Abs(xe[0] - want)
	errR := math.Abs(xr[0] - want)
	if errR >= errE {
		t.Fatalf("RK4 error %g not better than Euler %g at same dt", errR, errE)
	}
}

func TestRK4OscillatorEnergy(t *testing.T) {
	x := []float64{1, 0}
	step(NewRK4(), oscillator{}, 0.01, 1000, x)
	energy := x[0]*x[0] + x[1]*x[1]
	if math.Abs(energy-1) > 1e-6 {
		t.Fatalf("oscillator energy drifted to %g", energy)
	}
	// After t = 10 the exact solution is cos(10).
	if math.Abs(x[0]-math.Cos(10)) > 1e-5 {
		t.Fatalf("oscillator position %g, want %g", x[0], math.Cos(10))
	}
}

func TestIntegratorNames(t *testing.T) {
	if NewEuler().Name() != "euler" || NewRK4().Name() != "rk4" {
		t.Fatal("integrator names changed")
	}
}

func TestEulerBufferReuseAcrossDims(t *testing.T) {
	// Using the same integrator for systems of different sizes must work.
	e := NewEuler()
	x1 := []float64{1}
	e.Step(decay{k: 1}, 0, 0.1, x1)
	x2 := []float64{1, 0}
	e.Step(oscillator{}, 0, 0.1, x2) // must not panic on size change
	if x2[0] == 1 && x2[1] == 0 {
		t.Fatal("state did not advance")
	}
}
