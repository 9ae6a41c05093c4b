package circuit

import (
	"math"
	"testing"
	"testing/quick"

	"dsgl/internal/mat"
	"dsgl/internal/ode"
	"dsgl/internal/rng"
)

// twoNode builds a 2-node quadratic network with a single coupling j and
// self-reactions h0, h1.
func twoNode(t *testing.T, j, h0, h1 float64) *Network {
	t.Helper()
	jm := mat.NewDense(2, 2)
	jm.Set(0, 1, j)
	jm.Set(1, 0, j)
	nw, err := NewNetwork(jm, []float64{h0, h1}, Config{Self: Quadratic})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestNewNetworkRejectsNonSquare(t *testing.T) {
	j := mat.NewDense(2, 3)
	if _, err := NewNetwork(j, []float64{-1, -1}, Config{Self: Quadratic}); err == nil {
		t.Fatal("expected error for non-square J")
	}
}

func TestNewNetworkRejectsDiagonal(t *testing.T) {
	j := mat.NewDense(2, 2)
	j.Set(0, 0, 1)
	if _, err := NewNetwork(j, []float64{-1, -1}, Config{Self: Quadratic}); err == nil {
		t.Fatal("expected error for non-zero diagonal")
	}
}

func TestNewNetworkRejectsPositiveH(t *testing.T) {
	j := mat.NewDense(2, 2)
	if _, err := NewNetwork(j, []float64{-1, 0.5}, Config{Self: Quadratic}); err == nil {
		t.Fatal("expected error for non-negative h under quadratic self-reaction")
	}
}

func TestLinearAllowsAnyH(t *testing.T) {
	j := mat.NewDense(2, 2)
	if _, err := NewNetwork(j, []float64{1, -1}, Config{Self: Linear}); err != nil {
		t.Fatalf("linear self-reaction should allow positive h: %v", err)
	}
}

// TestQuadraticFixedPoint verifies Eq. 5: with node 0 clamped to v, node 1
// settles at -J*v/h1.
func TestQuadraticFixedPoint(t *testing.T) {
	nw := twoNode(t, 0.8, -1, -2)
	nw.Clamped[0] = true
	x := []float64{0.5, 0}
	ig := ode.NewEuler()
	tt := 0.0
	for s := 0; s < 4000; s++ {
		tt = ig.Step(nw, tt, 0.01, x)
		nw.ClampRails(x)
	}
	want := -0.8 * 0.5 / -2 // = 0.2
	if math.Abs(x[1]-want) > 1e-6 {
		t.Fatalf("node 1 settled at %g, want %g", x[1], want)
	}
	if x[0] != 0.5 {
		t.Fatalf("clamped node moved to %g", x[0])
	}
}

// TestLinearPolarizes verifies the binary limitation the paper fixes: with
// linear self-reaction the free node rides to a rail.
func TestLinearPolarizes(t *testing.T) {
	jm := mat.NewDense(2, 2)
	jm.Set(0, 1, 0.8)
	jm.Set(1, 0, 0.8)
	nw, err := NewNetwork(jm, []float64{0, 0}, Config{Self: Linear})
	if err != nil {
		t.Fatal(err)
	}
	nw.Clamped[0] = true
	x := []float64{0.5, 0.01}
	ig := ode.NewEuler()
	tt := 0.0
	for s := 0; s < 4000; s++ {
		tt = ig.Step(nw, tt, 0.01, x)
		nw.ClampRails(x)
	}
	if math.Abs(x[1]-1) > 1e-9 {
		t.Fatalf("linear node should polarize to +1, got %g", x[1])
	}
}

// TestEnergyMonotoneDescent verifies the Lyapunov property (Eq. 6): free
// evolution never increases H_RV.
func TestEnergyMonotoneDescent(t *testing.T) {
	r := rng.New(42)
	n := 12
	jm := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := r.NormScaled(0, 0.3)
			jm.Set(i, j, v)
			jm.Set(j, i, v)
		}
	}
	h := make([]float64, n)
	for i := range h {
		h[i] = -2 // strongly convex so the quadratic term dominates
	}
	nw, err := NewNetwork(jm, h, Config{Self: Quadratic})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	r.FillUniform(x, -0.9, 0.9)
	ig := ode.NewEuler()
	prev := nw.Energy(x)
	tt := 0.0
	for s := 0; s < 2000; s++ {
		tt = ig.Step(nw, tt, 0.005, x)
		nw.ClampRails(x)
		e := nw.Energy(x)
		if e > prev+1e-9 {
			t.Fatalf("energy increased at step %d: %g -> %g", s, prev, e)
		}
		prev = e
	}
}

func TestClampSetReleases(t *testing.T) {
	nw := twoNode(t, 0.5, -1, -1)
	nw.Clamped[0] = true
	nw.Clamped[1] = true
	nw.ClampSet([]int{1})
	if nw.Clamped[0] || !nw.Clamped[1] {
		t.Fatalf("ClampSet wrong: %v", nw.Clamped)
	}
	nw.ClampSet(nil)
	if nw.Clamped[0] || nw.Clamped[1] {
		t.Fatalf("ClampSet(nil) kept a clamp: %v", nw.Clamped)
	}
}

func TestRailsStopOutwardCurrent(t *testing.T) {
	nw := twoNode(t, 2.0, -0.5, -0.5)
	nw.Clamped[0] = true
	x := []float64{1.0, 1.0} // node 1 at rail; coupling pushes it further out
	dst := make([]float64, 2)
	nw.Derivative(0, x, dst)
	if dst[1] > 0 {
		t.Fatalf("outward current at rail must be zero, got %g", dst[1])
	}
}

func TestEquilibriumMatchesODE(t *testing.T) {
	r := rng.New(7)
	n := 8
	jm := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && r.Float64() < 0.5 {
				jm.Set(i, j, r.NormScaled(0, 0.2))
			}
		}
	}
	h := make([]float64, n)
	for i := range h {
		h[i] = -1.5
	}
	nw, err := NewNetwork(jm, h, Config{Self: Quadratic})
	if err != nil {
		t.Fatal(err)
	}
	nw.Clamped[0] = true
	nw.Clamped[1] = true
	x := make([]float64, n)
	x[0], x[1] = 0.4, -0.3
	eq := nw.Equilibrium(x, 200)

	xo := mat.CopyVec(x)
	ig := ode.NewEuler()
	tt := 0.0
	for s := 0; s < 20000; s++ {
		tt = ig.Step(nw, tt, 0.01, xo)
		nw.ClampRails(xo)
	}
	for i := 0; i < n; i++ {
		if math.Abs(eq[i]-xo[i]) > 1e-4 {
			t.Fatalf("node %d: Gauss-Seidel %g vs ODE %g", i, eq[i], xo[i])
		}
	}
}

// TestEnergyQuadraticProperty: for random symmetric systems, the analytic
// gradient used by Derivative matches a finite-difference of Energy.
func TestDerivativeMatchesEnergyGradient(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(uint64(seed))
		n := 5
		jm := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := r.NormScaled(0, 0.3)
				jm.Set(i, j, v)
				jm.Set(j, i, v)
			}
		}
		h := make([]float64, n)
		for i := range h {
			h[i] = -1 - r.Float64()
		}
		nw, err := NewNetwork(jm, h, Config{Self: Quadratic})
		if err != nil {
			return false
		}
		x := make([]float64, n)
		r.FillUniform(x, -0.5, 0.5)
		dst := make([]float64, n)
		nw.Derivative(0, x, dst)
		const eps = 1e-6
		for i := 0; i < n; i++ {
			xp := mat.CopyVec(x)
			xm := mat.CopyVec(x)
			xp[i] += eps
			xm[i] -= eps
			fd := (nw.Energy(xp) - nw.Energy(xm)) / (2 * eps)
			// dσ/dt = -(1/C) ∂H/∂σ with C = 1.
			if math.Abs(dst[i]+fd) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSelfReactionString(t *testing.T) {
	if Linear.String() != "linear" || Quadratic.String() != "quadratic" {
		t.Fatal("SelfReaction names changed")
	}
	if SelfReaction(9).String() == "" {
		t.Fatal("unknown self-reaction must stringify")
	}
}

func TestNewNetworkCSRValidation(t *testing.T) {
	j := mat.FromDense(mat.NewDense(2, 2), 0)
	if _, err := NewNetworkCSR(j, []float64{-1}, Config{Self: Quadratic}); err == nil {
		t.Fatal("expected error for h length mismatch")
	}
	if _, err := NewNetworkCSR(j, []float64{-1, 1}, Config{Self: Quadratic}); err == nil {
		t.Fatal("expected error for positive h")
	}
	bad := &mat.CSR{Rows: 2, Cols: 3, RowPtr: []int{0, 0, 0}}
	if _, err := NewNetworkCSR(bad, []float64{-1, -1}, Config{Self: Quadratic}); err == nil {
		t.Fatal("expected error for non-square")
	}
	nw, err := NewNetworkCSR(j, []float64{-1, -1}, Config{Self: Quadratic})
	if err != nil {
		t.Fatal(err)
	}
	if nw.VRail != 1 {
		t.Fatal("defaults not applied")
	}
}

func TestEquilibriumPanicsOnLinear(t *testing.T) {
	j := mat.NewDense(2, 2)
	nw, err := NewNetwork(j, []float64{0, 0}, Config{Self: Linear})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	nw.Equilibrium([]float64{0, 0}, 10)
}
