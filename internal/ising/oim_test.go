package ising

import (
	"math"
	"testing"

	"dsgl/internal/engine"
	"dsgl/internal/mat"
	"dsgl/internal/rng"
)

// oimSchedule ramps SHIL from 0 to nearly full strength over 60 ns of
// phase flow (120 checkpoints of 0.5 ns).
var oimSchedule = engine.GeometricSchedule(120, 2, 0.05)

// binarized reports the largest distance of any phase from {0, π} (mod π).
func binarized(phi []float64) float64 {
	var worst float64
	for _, p := range phi {
		mod := math.Mod(p, math.Pi)
		if mod < 0 {
			mod += math.Pi
		}
		worst = math.Max(worst, math.Min(mod, math.Pi-mod))
	}
	return worst
}

func TestOIMFerromagnetAligns(t *testing.T) {
	m := ferroModel(t, 6, 0.5)
	res, _ := solveOnce(t, m, OIMDynamics, oimSchedule, 3)
	for i := 1; i < 6; i++ {
		if res.Spins[i] != res.Spins[0] {
			t.Fatalf("ferromagnet phases not aligned: %v", res.Spins)
		}
	}
}

func TestOIMMaxCutQuality(t *testing.T) {
	w := randomGraph(10, 0.5, 0.2, 21)
	m := maxCutModel(t, w)
	res, _ := solveOnce(t, m, OIMDynamics, oimSchedule, 8)
	got, best := cutValue(w, res.Spins), optimalCut(t, w, m)
	if got < 0.8*best {
		t.Fatalf("OIM cut %g below 80%% of optimum %g", got, best)
	}
}

func TestOIMShilBinarizesPhases(t *testing.T) {
	m := ferroModel(t, 8, 0.3)
	_, phi := solveOnce(t, m, OIMDynamics, engine.GeometricSchedule(200, 2, 0.05), 5)
	// Final phases must sit near 0 or π (mod π tolerance).
	if d := binarized(phi); d > 0.2 {
		t.Fatalf("phases %v not binarized (worst distance %g)", phi, d)
	}
}

func TestPhaseQuantize(t *testing.T) {
	s := make([]int8, 6)
	PhaseQuantizeInto(s, []float64{0, math.Pi, 2 * math.Pi, -math.Pi, math.Pi / 4, 3 * math.Pi / 4})
	want := []int8{1, -1, 1, -1, 1, -1}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("PhaseQuantizeInto[%d] = %d, want %d", i, s[i], want[i])
		}
	}
}

func TestXYEnergyGradientConsistency(t *testing.T) {
	// The phase dynamics must be the negative gradient of XYEnergy.
	r := rng.New(17)
	n := 5
	j := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for k := i + 1; k < n; k++ {
			v := r.NormScaled(0, 0.5)
			j.Set(i, k, v)
			j.Set(k, i, v)
		}
	}
	m := denseModel(t, j, make([]float64, n))
	phi := make([]float64, n)
	r.FillUniform(phi, 0, 2*math.Pi)
	sys := &phaseSystem{w: m.W, shilK: 0.7}
	dst := make([]float64, n)
	sys.Derivative(phi, dst)
	const eps = 1e-6
	for i := 0; i < n; i++ {
		up := append([]float64(nil), phi...)
		dn := append([]float64(nil), phi...)
		up[i] += eps
		dn[i] -= eps
		fd := (XYEnergy(m, up, 0.7) - XYEnergy(m, dn, 0.7)) / (2 * eps)
		if math.Abs(dst[i]+fd) > 1e-5 {
			t.Fatalf("phase %d: dynamics %g vs -grad %g", i, dst[i], -fd)
		}
	}
}

func TestOIMCannotHoldRealValues(t *testing.T) {
	// The contrast the paper draws: oscillators do not settle at
	// intermediate "real-valued" phases — SHIL binarizes them. (The
	// Real-Valued DSPU test suite shows the opposite behaviour.)
	m := ferroModel(t, 4, 0.5)
	_, phi := solveOnce(t, m, OIMDynamics, oimSchedule, 2)
	if d := binarized(phi); d > 0.25 {
		t.Fatalf("oscillators settled at non-binary phases %v (worst distance %g)", phi, d)
	}
}
