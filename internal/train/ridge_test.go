package train

import (
	"math"
	"testing"

	"dsgl/internal/mat"
	"dsgl/internal/rng"
)

// genObservedUnknown builds samples where the unknown entries are exact
// linear functions of the observed ones plus optional noise.
func genObservedUnknown(r *rng.RNG, nObs, nUnk, m int, noise float64) (w *mat.Dense, observed []bool, samples [][]float64) {
	n := nObs + nUnk
	observed = make([]bool, n)
	for i := 0; i < nObs; i++ {
		observed[i] = true
	}
	w = mat.NewDense(nUnk, nObs)
	r.FillNorm(w.Data, 0, 0.3)
	samples = make([][]float64, m)
	for s := range samples {
		x := make([]float64, n)
		r.FillUniform(x[:nObs], -0.8, 0.8)
		for u := 0; u < nUnk; u++ {
			var v float64
			for i := 0; i < nObs; i++ {
				v += w.At(u, i) * x[i]
			}
			x[nObs+u] = v + r.NormScaled(0, noise)
		}
		samples[s] = x
	}
	return w, observed, samples
}

func TestRidgeInitRecoversExactSystem(t *testing.T) {
	r := rng.New(1)
	wTrue, observed, samples := genObservedUnknown(r, 10, 4, 200, 0)
	p, err := RidgeInit(samples, observed, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// J[unk][obs] must equal the generating weights (h = -1).
	for u := 0; u < 4; u++ {
		for i := 0; i < 10; i++ {
			got := p.J.At(10+u, i)
			if math.Abs(got-wTrue.At(u, i)) > 1e-4 {
				t.Fatalf("J[%d][%d] = %g, want %g", 10+u, i, got, wTrue.At(u, i))
			}
		}
	}
	// Unknown-to-unknown block stays zero.
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if p.J.At(10+a, 10+b) != 0 {
				t.Fatal("unknown-unknown coupling should be zero")
			}
		}
	}
}

func TestRidgeInitRegressionMatchesTargets(t *testing.T) {
	r := rng.New(2)
	_, observed, samples := genObservedUnknown(r, 8, 3, 150, 0.01)
	p, err := RidgeInit(samples, observed, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 11)
	var sse, n float64
	for _, smp := range samples {
		p.Regress(smp, buf)
		for u := 8; u < 11; u++ {
			d := buf[u] - smp[u]
			sse += d * d
			n++
		}
	}
	if rmse := math.Sqrt(sse / n); rmse > 0.05 {
		t.Fatalf("training-set regression RMSE %g too high", rmse)
	}
}

func TestRidgeInitShrinksWithLambda(t *testing.T) {
	r := rng.New(3)
	_, observed, samples := genObservedUnknown(r, 8, 3, 100, 0.05)
	small, err := RidgeInit(samples, observed, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RidgeInit(samples, observed, 100)
	if err != nil {
		t.Fatal(err)
	}
	norm := func(p *Params) float64 {
		var s float64
		for _, v := range p.J.Data {
			s += v * v
		}
		return s
	}
	if norm(big) >= norm(small) {
		t.Fatalf("larger lambda must shrink weights: %g vs %g", norm(big), norm(small))
	}
}

func TestRidgeInitErrors(t *testing.T) {
	if _, err := RidgeInit(nil, nil, 1); err == nil {
		t.Fatal("expected error for no samples")
	}
	if _, err := RidgeInit([][]float64{{1, 2}}, []bool{true}, 1); err == nil {
		t.Fatal("expected error for mask length mismatch")
	}
	if _, err := RidgeInit([][]float64{{1, 2}}, []bool{true, false}, 0); err == nil {
		t.Fatal("expected error for non-positive lambda")
	}
	if _, err := RidgeInit([][]float64{{1, 2}}, []bool{true, true}, 1); err == nil {
		t.Fatal("expected error when no unknowns")
	}
	if _, err := RidgeInit([][]float64{{1, 2}, {1}}, []bool{true, false}, 1); err == nil {
		t.Fatal("expected error for ragged samples")
	}
}

func TestMaskedRidgeRespectsMask(t *testing.T) {
	r := rng.New(4)
	_, observed, samples := genObservedUnknown(r, 8, 3, 150, 0.01)
	n := 11
	mask := mat.NewBool(n, n)
	// Unknown 8 may use observed 0-3 only; unknown 9 observed 4-7;
	// unknown 10 nothing.
	for i := 0; i < 4; i++ {
		mask.Set(8, i, true)
		mask.Set(9, 4+i, true)
	}
	p, err := MaskedRidge(samples, observed, mask, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < n; c++ {
		if c >= 4 && p.J.At(8, c) != 0 {
			t.Fatalf("row 8 coupled outside mask at %d", c)
		}
		if (c < 4 || c > 7) && p.J.At(9, c) != 0 {
			t.Fatalf("row 9 coupled outside mask at %d", c)
		}
		if p.J.At(10, c) != 0 {
			t.Fatal("isolated row 10 must stay zero")
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMaskedRidgeMatchesFullRidgeWhenUnmasked(t *testing.T) {
	r := rng.New(5)
	_, observed, samples := genObservedUnknown(r, 8, 3, 150, 0.02)
	n := 11
	full := mat.NewBool(n, n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				full.Set(a, b, true)
			}
		}
	}
	mr, err := MaskedRidge(samples, observed, full, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := RidgeInit(samples, observed, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !mr.J.Equal(ri.J, 1e-8) {
		t.Fatal("full-mask MaskedRidge must equal RidgeInit")
	}
}

func TestMaskedRidgeErrors(t *testing.T) {
	samples := [][]float64{{1, 2}}
	observed := []bool{true, false}
	if _, err := MaskedRidge(samples, observed, nil, 1); err == nil {
		t.Fatal("expected error for nil mask")
	}
	if _, err := MaskedRidge(samples, observed, mat.NewBool(3, 3), 1); err == nil {
		t.Fatal("expected error for mask shape")
	}
	if _, err := MaskedRidge(nil, observed, mat.NewBool(2, 2), 1); err == nil {
		t.Fatal("expected error for no samples")
	}
	if _, err := MaskedRidge(samples, observed, mat.NewBool(2, 2), -1); err == nil {
		t.Fatal("expected error for bad lambda")
	}
}

func TestSolveMultiKnownSystem(t *testing.T) {
	// [2 1; 1 3] X = [5; 10] -> X = [1; 3].
	a := mat.NewDenseFrom(2, 2, []float64{2, 1, 1, 3})
	b := mat.NewDenseFrom(2, 1, []float64{5, 10})
	x, err := solveMulti(a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x.At(0, 0)-1) > 1e-12 || math.Abs(x.At(1, 0)-3) > 1e-12 {
		t.Fatalf("solution %v", x.Data)
	}
}

func TestSolveMultiSingular(t *testing.T) {
	a := mat.NewDenseFrom(2, 2, []float64{1, 1, 1, 1})
	b := mat.NewDenseFrom(2, 1, []float64{1, 2})
	if _, err := solveMulti(a, b, 1); err == nil {
		t.Fatal("expected error for singular system")
	}
}

func TestSolveMultiPivoting(t *testing.T) {
	// Leading zero forces a pivot swap.
	a := mat.NewDenseFrom(2, 2, []float64{0, 1, 1, 0})
	b := mat.NewDenseFrom(2, 1, []float64{3, 7})
	x, err := solveMulti(a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x.At(0, 0)-7) > 1e-12 || math.Abs(x.At(1, 0)-3) > 1e-12 {
		t.Fatalf("solution %v", x.Data)
	}
}
