package train

import (
	"math"
	"testing"

	"dsgl/internal/mat"
	"dsgl/internal/rng"
)

// genLinearSystem samples vectors from a known ground-truth dynamical
// system: draw a random "seed" subset, then fill the rest via the system's
// regression so the data is exactly representable.
func genLinearSystem(r *rng.RNG, n, m int) (*Params, [][]float64) {
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
		h[i] = -1
	}
	truth := &Params{J: j, H: h}
	samples := make([][]float64, m)
	buf := make([]float64, n)
	for s := range samples {
		x := make([]float64, n)
		r.FillUniform(x, -0.8, 0.8)
		// A few Gauss-Seidel sweeps pull samples toward the system manifold
		// so a consistent (J, h) exists.
		for it := 0; it < 30; it++ {
			truth.Regress(x, buf)
			for i := n / 2; i < n; i++ { // keep first half as free inputs
				x[i] = 0.7*x[i] + 0.3*buf[i]
			}
		}
		samples[s] = x
	}
	return truth, samples
}

func TestFitReducesLoss(t *testing.T) {
	r := rng.New(1)
	_, samples := genLinearSystem(r, 20, 60)
	initParams, err := Fit(samples, Config{Epochs: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	trained, err := Fit(samples, Config{Epochs: 120, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	l0 := Loss(initParams, samples)
	l1 := Loss(trained, samples)
	if l1 >= l0 {
		t.Fatalf("training did not reduce loss: %g -> %g", l0, l1)
	}
	if l1 > 0.5*l0 {
		t.Fatalf("training barely reduced loss: %g -> %g", l0, l1)
	}
}

func TestFitInvariants(t *testing.T) {
	r := rng.New(3)
	_, samples := genLinearSystem(r, 12, 40)
	p, err := Fit(samples, Config{Epochs: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Dim(); i++ {
		if p.J.At(i, i) != 0 {
			t.Fatalf("diag(J) non-zero at %d", i)
		}
		if p.H[i] > -0.5+1e-12 {
			t.Fatalf("h[%d] = %g above HMax", i, p.H[i])
		}
	}
}

func TestFitWithMaskConfinesSupport(t *testing.T) {
	r := rng.New(5)
	_, samples := genLinearSystem(r, 10, 30)
	n := 10
	mask := mat.NewBool(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if (i+k)%2 == 0 && i != k {
				mask.Set(i, k, true)
			}
		}
	}
	p, err := Fit(samples, Config{Epochs: 40, Mask: mask})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if !mask.At(i, k) && p.J.At(i, k) != 0 {
				t.Fatalf("J[%d,%d] = %g outside mask", i, k, p.J.At(i, k))
			}
		}
	}
}

func TestFineTuneFromInitImproves(t *testing.T) {
	r := rng.New(7)
	_, samples := genLinearSystem(r, 14, 50)
	full, err := Fit(samples, Config{Epochs: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Prune half the support, then fine-tune under that mask.
	n := full.Dim()
	mask := mat.NewBool(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if i != k && math.Abs(full.J.At(i, k)) > 0.01 {
				mask.Set(i, k, true)
			}
		}
	}
	pruned := full.Clone()
	pruned.J.ApplyMask(mask)
	lPruned := Loss(pruned, samples)
	tuned, err := Fit(samples, Config{Epochs: 60, Mask: mask, Init: pruned})
	if err != nil {
		t.Fatal(err)
	}
	lTuned := Loss(tuned, samples)
	if lTuned > lPruned+1e-12 {
		t.Fatalf("fine-tune made loss worse: %g -> %g", lPruned, lTuned)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, Config{}); err == nil {
		t.Fatal("expected error for empty samples")
	}
	if _, err := Fit([][]float64{{1, 2}, {1}}, Config{}); err == nil {
		t.Fatal("expected error for ragged samples")
	}
	if _, err := Fit([][]float64{{1, 2}}, Config{HMax: 0.5}); err == nil {
		t.Fatal("expected error for positive HMax")
	}
	badMask := mat.NewBool(3, 3)
	if _, err := Fit([][]float64{{1, 2}}, Config{Mask: badMask}); err == nil {
		t.Fatal("expected error for mask size mismatch")
	}
	init := &Params{J: mat.NewDense(3, 3), H: []float64{-1, -1, -1}}
	if _, err := Fit([][]float64{{1, 2}}, Config{Init: init}); err == nil {
		t.Fatal("expected error for init dim mismatch")
	}
}

func TestRegressMatchesManual(t *testing.T) {
	j := mat.NewDense(2, 2)
	j.Set(0, 1, 0.4)
	j.Set(1, 0, -0.2)
	p := &Params{J: j, H: []float64{-2, -0.5}}
	out := p.Regress([]float64{1, 0.5}, nil)
	// out0 = -(0.4*0.5)/-2 = 0.1; out1 = -(-0.2*1)/-0.5 = -0.4.
	if math.Abs(out[0]-0.1) > 1e-12 || math.Abs(out[1]+0.4) > 1e-12 {
		t.Fatalf("Regress = %v", out)
	}
}

func TestLossZeroForPerfectSystem(t *testing.T) {
	// If every sample satisfies σ = Regress(σ) exactly, loss is 0.
	j := mat.NewDense(2, 2)
	j.Set(0, 1, 1)
	j.Set(1, 0, 1)
	p := &Params{J: j, H: []float64{-1, -1}}
	// σ0 = σ1 satisfies both regressions when h = -1, J = 1.
	samples := [][]float64{{0.3, 0.3}, {-0.5, -0.5}}
	if l := Loss(p, samples); l > 1e-15 {
		t.Fatalf("loss = %g, want 0", l)
	}
}

func TestL1DrivesSparsity(t *testing.T) {
	r := rng.New(9)
	_, samples := genLinearSystem(r, 16, 50)
	dense, err := Fit(samples, Config{Epochs: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := Fit(samples, Config{Epochs: 80, Seed: 1, L1: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// L1-regularized couplings should be smaller in aggregate magnitude.
	sumAbs := func(m *mat.Dense) float64 {
		var s float64
		for _, v := range m.Data {
			s += math.Abs(v)
		}
		return s
	}
	if sumAbs(sparse.J) >= sumAbs(dense.J) {
		t.Fatalf("L1 did not shrink couplings: %g vs %g", sumAbs(sparse.J), sumAbs(dense.J))
	}
}

func TestTrainHOffKeepsH(t *testing.T) {
	r := rng.New(4)
	_, samples := genLinearSystem(r, 8, 20)
	p, err := Fit(samples, Config{Epochs: 30, TrainHOff: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range p.H {
		if h != -1 {
			t.Fatalf("h[%d] = %g changed despite TrainHOff", i, h)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	p := &Params{J: mat.NewDense(2, 2), H: []float64{-1, -1}}
	c := p.Clone()
	c.J.Set(0, 1, 5)
	c.H[0] = -9
	if p.J.At(0, 1) != 0 || p.H[0] != -1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestValidateCatchesBadParams(t *testing.T) {
	p := &Params{J: mat.NewDense(2, 2), H: []float64{-1, 1}}
	if err := p.Validate(); err == nil {
		t.Fatal("expected error for positive h")
	}
	p2 := &Params{J: mat.NewDense(3, 3), H: []float64{-1, -1}}
	if err := p2.Validate(); err == nil {
		t.Fatal("expected error for shape mismatch")
	}
	p3 := &Params{J: mat.NewDense(2, 2), H: []float64{-1, -1}}
	p3.J.Set(1, 1, 2)
	if err := p3.Validate(); err == nil {
		t.Fatal("expected error for non-zero diagonal")
	}
}

// TestValidateRejectsNonFinite: NaN >= 0 is false, so a sign check alone
// passes a NaN h, and off-diagonal J entries had no check at all. Validate
// gates snapshot Load, scalable.Build and training, so every non-finite
// entry must fail it.
func TestValidateRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tc := range []struct {
			name string
			set  func(p *Params)
		}{
			{"h", func(p *Params) { p.H[1] = v }},
			{"J off-diagonal", func(p *Params) { p.J.Set(0, 2, v) }},
			{"J diagonal", func(p *Params) { p.J.Set(2, 2, v) }},
		} {
			p := &Params{J: mat.NewDense(3, 3), H: []float64{-1, -1, -1}}
			p.J.Set(0, 1, 0.2)
			if err := p.Validate(); err != nil {
				t.Fatalf("baseline params rejected: %v", err)
			}
			tc.set(p)
			if err := p.Validate(); err == nil {
				t.Fatalf("%s = %v accepted", tc.name, v)
			}
		}
	}
}
