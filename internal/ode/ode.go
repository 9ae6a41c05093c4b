// Package ode provides fixed-step integrators for the circuit-level
// dynamical-system simulation. The paper evaluates DS-GL on a finite-element
// (FEA) software simulator of the chip's ODEs; this package is the
// equivalent integration core. Time is measured in nanoseconds throughout
// the repository, matching the paper's voltage-trace plots (Fig. 4) and
// latency axes (Fig. 11, Fig. 12).
package ode

// System is a first-order ODE dx/dt = f(t, x). Derivative writes dx/dt into
// dst; implementations must not retain dst or x.
type System interface {
	// Dim returns the state dimension.
	Dim() int
	// Derivative evaluates f(t, x) into dst. len(dst) == len(x) == Dim().
	Derivative(t float64, x, dst []float64)
}

// Integrator advances an ODE state by one fixed step.
type Integrator interface {
	// Step advances x in place from time t by dt and returns t+dt.
	Step(sys System, t, dt float64, x []float64) float64
	// Name identifies the method for reports and ablations.
	Name() string
}

// Cloner is implemented by integrators that carry internal scratch buffers
// (Euler, RK4). CloneIntegrator returns a fresh integrator of the same
// method with private scratch, so concurrent workers can step distinct
// states without sharing buffers.
type Cloner interface {
	CloneIntegrator() Integrator
}

// Clone returns a private copy of ig when it implements Cloner and ig
// itself otherwise. Integrators that do not implement Cloner must be
// stateless to be shared across goroutines.
func Clone(ig Integrator) Integrator {
	if c, ok := ig.(Cloner); ok {
		return c.CloneIntegrator()
	}
	return ig
}

// Euler is the forward Euler method. It is what an explicit circuit
// simulator with a small timestep effectively computes, and is the default
// integrator for annealing runs (the dynamics are strongly contractive, so
// first order suffices at dt ≲ 0.1 ns).
type Euler struct {
	buf []float64
}

// NewEuler returns a forward Euler integrator.
func NewEuler() *Euler { return &Euler{} }

// Name implements Integrator.
func (e *Euler) Name() string { return "euler" }

// CloneIntegrator implements Cloner.
func (e *Euler) CloneIntegrator() Integrator { return &Euler{} }

// Step implements Integrator.
func (e *Euler) Step(sys System, t, dt float64, x []float64) float64 {
	if len(e.buf) != len(x) {
		e.buf = make([]float64, len(x))
	}
	sys.Derivative(t, x, e.buf)
	for i, d := range e.buf {
		x[i] += dt * d
	}
	return t + dt
}

// RK4 is the classical fourth-order Runge-Kutta method, used in the
// integrator ablation to confirm the Euler results are step-size converged.
type RK4 struct {
	k1, k2, k3, k4, tmp []float64
}

// NewRK4 returns a fourth-order Runge-Kutta integrator.
func NewRK4() *RK4 { return &RK4{} }

// Name implements Integrator.
func (r *RK4) Name() string { return "rk4" }

// CloneIntegrator implements Cloner.
func (r *RK4) CloneIntegrator() Integrator { return &RK4{} }

// Step implements Integrator.
func (r *RK4) Step(sys System, t, dt float64, x []float64) float64 {
	n := len(x)
	if len(r.k1) != n {
		r.k1 = make([]float64, n)
		r.k2 = make([]float64, n)
		r.k3 = make([]float64, n)
		r.k4 = make([]float64, n)
		r.tmp = make([]float64, n)
	}
	sys.Derivative(t, x, r.k1)
	for i := range x {
		r.tmp[i] = x[i] + dt/2*r.k1[i]
	}
	sys.Derivative(t+dt/2, r.tmp, r.k2)
	for i := range x {
		r.tmp[i] = x[i] + dt/2*r.k2[i]
	}
	sys.Derivative(t+dt/2, r.tmp, r.k3)
	for i := range x {
		r.tmp[i] = x[i] + dt*r.k3[i]
	}
	sys.Derivative(t+dt, r.tmp, r.k4)
	for i := range x {
		x[i] += dt / 6 * (r.k1[i] + 2*r.k2[i] + 2*r.k3[i] + r.k4[i])
	}
	return t + dt
}
