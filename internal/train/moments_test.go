package train

import (
	"math"
	"testing"

	"dsgl/internal/mat"
	"dsgl/internal/rng"
)

// momentTestSamples draws uniform samples over n variables with every
// third variable unknown, so unknown columns (J's structural zeros) sit
// between observed ones, and zeroes a few entries so the accumulation's
// zero-row skip runs.
func momentTestSamples(n, count int, seed uint64) ([][]float64, []bool) {
	r := rng.New(seed)
	observed := make([]bool, n)
	for i := range observed {
		observed[i] = i%3 != 1
	}
	samples := make([][]float64, count)
	for s := range samples {
		smp := make([]float64, n)
		r.FillUniform(smp, -0.8, 0.8)
		smp[s%n] = 0
		samples[s] = smp
	}
	return samples, observed
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestMomentsPrefixSuffixAnyWorkers: moments accumulated as a prefix and
// then a suffix, with their rows split over any number of blocks, must
// solve to exactly what one single-worker pass over all samples gives.
func TestMomentsPrefixSuffixAnyWorkers(t *testing.T) {
	const n, lambda = 17, 0.3
	samples, observed := momentTestSamples(n, 80, 31)
	mask := mat.NewBool(n, n)
	r := rng.New(32)
	for i := range mask.Data {
		mask.Data[i] = r.Float64() < 0.5
	}
	want, err := RidgeInit(samples, observed, lambda)
	if err != nil {
		t.Fatal(err)
	}
	wantMasked, err := MaskedRidge(samples, observed, mask, lambda)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		m, err := NewMoments(observed)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Add(samples[:53], workers); err != nil {
			t.Fatal(err)
		}
		if err := m.Add(samples[53:], workers); err != nil {
			t.Fatal(err)
		}
		got, err := m.Ridge(lambda, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got.J.Data, want.J.Data) || !sameBits(got.H, want.H) {
			t.Errorf("workers=%d: Ridge differs from RidgeInit over all samples", workers)
		}
		gotMasked, err := m.MaskedRidge(mask, lambda, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(gotMasked.J.Data, wantMasked.J.Data) {
			t.Errorf("workers=%d: MaskedRidge differs from the package-level MaskedRidge", workers)
		}
	}
}

// TestMomentsPredictMatchesRegress: a candidate scored from its weights
// predicts every unknown exactly as Params.Regress does on the J that
// Ridge installs from the same weights, with the validation samples passed
// together (three groups of four and one of three) and with an odd and an
// even number of unknowns.
func TestMomentsPredictMatchesRegress(t *testing.T) {
	const lambda = 0.1
	for _, n := range []int{16, 17} {
		samples, observed := momentTestSamples(n, 60, 33)
		m, err := NewMoments(observed)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Add(samples[:45], 2); err != nil {
			t.Fatal(err)
		}
		w, err := m.Weights(lambda, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.Ridge(lambda, 1)
		if err != nil {
			t.Fatal(err)
		}
		val := samples[45:]
		pred := make([][]float64, len(val))
		for s := range pred {
			pred[s] = make([]float64, len(m.unkIdx))
		}
		m.Predict(w, val, pred)
		buf := make([]float64, n)
		for s, smp := range val {
			p.Regress(smp, buf)
			for k, idx := range m.unkIdx {
				if math.Float64bits(pred[s][k]) != math.Float64bits(buf[idx]) {
					t.Fatalf("n=%d sample %d unknown %d: Predict %v, Regress %v", n, s, idx, pred[s][k], buf[idx])
				}
			}
		}
	}
}

// TestMomentsErrors: solving needs samples and a positive lambda, and
// every sample must have one entry per variable.
func TestMomentsErrors(t *testing.T) {
	if _, err := NewMoments([]bool{true, true}); err == nil {
		t.Error("moments with no unknown variable accepted")
	}
	m, err := NewMoments([]bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Weights(1, 1, nil); err == nil {
		t.Error("solve before any sample accepted")
	}
	if err := m.Add([][]float64{{1, 2}, {1}}, 2); err == nil {
		t.Error("ragged samples accepted")
	}
	if err := m.Add([][]float64{{1, 2}}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ridge(0, 1); err == nil {
		t.Error("zero lambda accepted")
	}
}
