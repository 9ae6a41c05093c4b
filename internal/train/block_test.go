package train

import (
	"fmt"
	"testing"

	"dsgl/internal/mat"
	"dsgl/internal/rng"
)

// blockTestSamples builds a deterministic synthetic regression problem:
// n variables, the last nu unknown, targets linear in the observed block
// plus noise.
func blockTestSamples(n, nu, count int, seed uint64) ([][]float64, []bool) {
	r := rng.New(seed)
	observed := make([]bool, n)
	for i := 0; i < n-nu; i++ {
		observed[i] = true
	}
	w := make([]float64, n-nu)
	for i := range w {
		w[i] = r.Uniform(-1, 1)
	}
	samples := make([][]float64, count)
	for s := range samples {
		smp := make([]float64, n)
		var acc float64
		for i := 0; i < n-nu; i++ {
			smp[i] = r.Uniform(-0.8, 0.8)
			acc += w[i] * smp[i]
		}
		for u := n - nu; u < n; u++ {
			smp[u] = acc/float64(n-nu) + r.NormScaled(0, 0.05)
		}
		samples[s] = smp
	}
	return samples, observed
}

// moments accumulates the samples' ridge moments on one worker, as
// RidgeInit and MaskedRidge do.
func moments(t *testing.T, samples [][]float64, observed []bool) *Moments {
	t.Helper()
	m, err := momentsOf(samples, observed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ridgeOracle is the monolithic dense fit the class-blocked solve
// replaced: the full system's weights from Weights, installed as
// J[u][obs_i] = W[i][u] with h = -1.
func ridgeOracle(m *Moments, lambda float64) (*Params, error) {
	w, err := m.Weights(lambda, 1, nil)
	if err != nil {
		return nil, err
	}
	p := m.newParams()
	for u, uIdx := range m.unkIdx {
		for i, oIdx := range m.obsIdx {
			p.J.Set(uIdx, oIdx, w.At(i, u))
		}
	}
	p.J.ZeroDiagonal()
	return p, nil
}

// maskedRidgeOracle is the monolithic masked refit the class-blocked solve
// replaced: one solve per unknown row over the observed columns the mask
// allows it, with the row's cross moments as the right-hand side.
func maskedRidgeOracle(m *Moments, mask *mat.Bool, lambda float64) (*Params, error) {
	p := m.newParams()
	for u, uIdx := range m.unkIdx {
		var cols []int
		for c := 0; c < m.n; c++ {
			if c != uIdx && mask.At(uIdx, c) && m.obsPos[c] >= 0 {
				cols = append(cols, m.obsPos[c])
			}
		}
		if len(cols) == 0 {
			continue
		}
		s := len(cols)
		sub, rhs := mat.NewDense(s, s), mat.NewDense(s, 1)
		for a := 0; a < s; a++ {
			for c := 0; c < s; c++ {
				sub.Set(a, c, m.gram(cols[a], cols[c]))
			}
			sub.Add(a, a, lambda)
			rhs.Set(a, 0, m.b.At(cols[a], u))
		}
		w, err := solveMulti(sub, rhs, 1)
		if err != nil {
			return nil, err
		}
		for a := 0; a < s; a++ {
			p.J.Set(uIdx, m.obsIdx[cols[a]], w.At(a, 0))
		}
	}
	p.J.ZeroDiagonal()
	return p, nil
}

// sameParams fails t unless got's J and h match want's bit for bit.
func sameParams(t *testing.T, name string, got, want *Params) {
	t.Helper()
	if !sameBits(got.J.Data, want.J.Data) || !sameBits(got.H, want.H) {
		t.Fatalf("%s: parameters differ from the monolithic oracle (bit-identity broken)", name)
	}
}

// TestBlockRidgeK1Identity is the training-layer half of verify invariant
// 10: with one class, nil or all zero, the block-diagonal Gram IS the full
// Gram, and Ridge must reproduce the full-system solve bit-for-bit.
func TestBlockRidgeK1Identity(t *testing.T) {
	const n, nu = 12, 3
	samples, observed := blockTestSamples(n, nu, 40, 11)
	m := moments(t, samples, observed)
	want, err := ridgeOracle(m, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for name, classOf := range map[string][]int{"nil": nil, "zeros": make([]int, n)} {
		for _, workers := range []int{1, 3} {
			got, err := m.Ridge(classOf, 0.5, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameParams(t, fmt.Sprintf("%s classes, %d workers", name, workers), got, want)
		}
	}
}

func TestBlockMaskedRidgeK1Identity(t *testing.T) {
	const n, nu = 12, 3
	samples, observed := blockTestSamples(n, nu, 40, 12)
	mask := mat.NewBool(n, n)
	r := rng.New(99)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			mask.Set(i, j, r.Float64() < 0.6)
		}
	}
	m := moments(t, samples, observed)
	want, err := maskedRidgeOracle(m, mask, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for name, classOf := range map[string][]int{"nil": nil, "zeros": make([]int, n)} {
		for _, workers := range []int{1, 3} {
			got, err := m.MaskedRidge(classOf, mask, 0.5, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameParams(t, fmt.Sprintf("%s classes, %d workers", name, workers), got, want)
		}
	}
}

// TestBlockRidgeRespectsClasses checks the decomposition semantics at K=2.
// The classes are solved in order against residuals (one block
// Gauss–Seidel sweep), so two properties pin the contract: class 0 — the
// first block — must match an independent ridge run with only that class
// observed bit-for-bit, and class 1 must satisfy the residual stationarity
// condition (G_11 + λI)·w_1 = b_1 − G_10·w_0, i.e. its own normal
// equations with the full cross-moment contribution of class 0's solution
// moved to the right-hand side.
func TestBlockRidgeRespectsClasses(t *testing.T) {
	const n, nu = 12, 3
	const lambda = 0.5
	samples, observed := blockTestSamples(n, nu, 40, 13)
	classOf := make([]int, n)
	for i := 0; i < n; i++ {
		classOf[i] = i % 2
	}

	block, err := moments(t, samples, observed).Ridge(classOf, lambda, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Class 0: identical to the isolated fit (other class's observed
	// columns zeroed and made unknown — their zero columns contribute
	// nothing to the Gram, and extra RHS columns don't perturb pivoting).
	iso := make([]bool, n)
	isoSamples := make([][]float64, len(samples))
	for s, smp := range samples {
		cp := make([]float64, n)
		copy(cp, smp)
		isoSamples[s] = cp
	}
	for i := 0; i < n; i++ {
		iso[i] = observed[i] && classOf[i] == 0
		if observed[i] && classOf[i] != 0 {
			for s := range isoSamples {
				isoSamples[s][i] = 0
			}
		}
	}
	mono, err := RidgeInit(isoSamples, iso, lambda)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		if observed[u] {
			continue
		}
		for c := 0; c < n; c++ {
			if !observed[c] || classOf[c] != 0 {
				continue
			}
			got, want := block.J.At(u, c), mono.J.At(u, c)
			if got != want {
				t.Fatalf("class 0 coupling J[%d][%d]: block %v != isolated %v", u, c, got, want)
			}
		}
	}

	// Class 1: stationarity of the residual solve. For every class-1
	// observed column a and unknown target u, the full normal equation
	// Σ_c G_ac·w_c + λ·w_a = b_au must hold — class 0's contribution sits
	// on the left because the class-1 block was solved on its residual.
	for u := 0; u < n; u++ {
		if observed[u] {
			continue
		}
		for a := 0; a < n; a++ {
			if !observed[a] || classOf[a] != 1 {
				continue
			}
			lhs := lambda * block.J.At(u, a)
			var bau float64
			for c := 0; c < n; c++ {
				if !observed[c] {
					continue
				}
				var gac float64
				for _, smp := range samples {
					gac += smp[a] * smp[c]
				}
				lhs += gac * block.J.At(u, c)
			}
			for _, smp := range samples {
				bau += smp[a] * smp[u]
			}
			if diff := lhs - bau; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("class 1 stationarity broken at J[%d][%d]: lhs %v != rhs %v", u, a, lhs, bau)
			}
		}
	}
}

func TestBlockRidgeBadClasses(t *testing.T) {
	samples, observed := blockTestSamples(6, 2, 10, 14)
	if _, err := moments(t, samples, observed).Ridge([]int{0, 0, 0}, 0.5, 1); err == nil {
		t.Fatal("short class vector must error")
	}
	if _, err := moments(t, samples, observed).Ridge([]int{0, 0, -1, 0, 0, 0}, 0.5, 1); err == nil {
		t.Fatal("negative class must error")
	}
	mask := mat.NewBool(6, 6)
	if _, err := moments(t, samples, observed).MaskedRidge([]int{0, 0, 0}, mask, 0.5, 1); err == nil {
		t.Fatal("short class vector must error (masked)")
	}
}
