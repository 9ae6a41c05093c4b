package dsgl

import (
	"math"
	"testing"

	"dsgl/internal/metrics"
	"dsgl/internal/obs"
	"dsgl/internal/train"
)

// sameParamBits compares two parameter sets bit for bit (NaN equals
// itself, -0 differs from +0).
func sameParamBits(a, b *train.Params) bool {
	return a.J.Rows == b.J.Rows && a.J.Cols == b.J.Cols && sameFloatBits(a.J.Data, b.J.Data) && sameFloatBits(a.H, b.H)
}

func sameFloatBits(a, b []float64) bool {
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

// TestTrainMatchesPerFitComposition pins the single moment pass against
// the pipeline it replaced, in which every closed-form fit accumulated
// its own moments: per lambda candidate a RidgeInit on the fit prefix
// scored through Params.Regress, then RidgeInit and MaskedRidge on all
// samples at the chosen lambda. Train must reproduce each candidate's
// validation RMSE, the chosen lambda, and the dense and tuned parameters
// bit for bit. The series are shortened from the 1,920-step default to
// keep the per-fit reference cheap (under -race too); every moment is
// still a sum over more than 300 samples.
func TestTrainMatchesPerFitComposition(t *testing.T) {
	for _, name := range DatasetNames() {
		for _, n := range []int{16, 48} {
			ds, err := NewDataset(name, DatasetConfig{N: n, T: 480, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			m, err := Train(ds, Options{Seed: 1})
			if err != nil {
				t.Fatalf("%s N=%d: %v", name, n, err)
			}
			trainW, _ := ds.Split()
			samples := make([][]float64, len(trainW))
			for i, w := range trainW {
				samples[i] = w.Full
			}
			observed, unknown := ds.ObservedMask(), ds.UnknownIndices()
			nVal := validationCount(len(samples))
			fit, val := samples[:len(samples)-nVal], samples[len(samples)-nVal:]

			// Reference: one RidgeInit per candidate, scored by Regress.
			want := make([]float64, len(lambdaCandidates))
			best, bestRMSE := lambdaCandidates[0], math.Inf(1)
			for i, lam := range lambdaCandidates {
				p, err := train.RidgeInit(fit, observed, lam)
				if err != nil {
					t.Fatal(err)
				}
				buf := make([]float64, ds.WindowLen())
				var acc metrics.Accumulator
				for _, smp := range val {
					p.Regress(smp, buf)
					for _, idx := range unknown {
						acc.Add(buf[idx], smp[idx])
					}
				}
				want[i] = acc.RMSE()
				if want[i] < bestRMSE {
					best, bestRMSE = lam, want[i]
				}
			}
			mom, err := train.NewMoments(observed)
			if err != nil {
				t.Fatal(err)
			}
			if err := mom.Add(fit, 1); err != nil {
				t.Fatal(err)
			}
			got, err := lambdaRMSE(mom, val, unknown, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !sameFloatBits(got, want) {
				t.Errorf("%s N=%d: candidate RMSEs %v, per-fit scoring gives %v", name, n, got, want)
			}
			if m.Opts.RidgeLambda != best {
				t.Fatalf("%s N=%d: Train chose lambda %g, per-fit selection %g", name, n, m.Opts.RidgeLambda, best)
			}

			dense, err := train.RidgeInit(samples, observed, best)
			if err != nil {
				t.Fatal(err)
			}
			if !sameParamBits(m.Dense, dense) {
				t.Errorf("%s N=%d: Dense differs from RidgeInit on all samples", name, n)
			}
			tuned, err := train.MaskedRidge(samples, observed, m.mask, best)
			if err != nil {
				t.Fatal(err)
			}
			if !sameParamBits(m.Tuned, tuned) {
				t.Errorf("%s N=%d: Tuned differs from MaskedRidge on all samples", name, n)
			}
		}
	}
}

// TestTrainWorkersBitIdentical: the moment pass splits its rows over
// Options.Workers and the lambda grid fans out over the same pool, so
// the worker count must change nothing a model is made of — lambda, both
// parameter sets and the compiled machine — on the monolithic pipeline
// and the decomposed one alike.
func TestTrainWorkersBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		ds   string
		n    int
		opts Options
	}{
		{"traffic-n48", "traffic", 48, Options{Seed: 1}},
		{"heteromix-k3", "heteromix", 16, Options{Seed: 1, Decompose: true, Classes: 3}},
	}
	for _, c := range cases {
		ds, err := NewDataset(c.ds, DatasetConfig{N: c.n, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var ref *Model
		for _, w := range []int{1, 2, 3, 8} {
			opts := c.opts
			opts.Workers = w
			m, err := Train(ds, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, w, err)
			}
			if ref == nil {
				ref = m
				continue
			}
			if m.Opts.RidgeLambda != ref.Opts.RidgeLambda {
				t.Errorf("%s workers=%d: lambda %g, workers=1 chose %g", c.name, w, m.Opts.RidgeLambda, ref.Opts.RidgeLambda)
			}
			if !sameParamBits(m.Dense, ref.Dense) || !sameParamBits(m.Tuned, ref.Tuned) {
				t.Errorf("%s workers=%d: parameters differ from workers=1", c.name, w)
			}
			if m.Machine.Stats() != ref.Machine.Stats() {
				t.Errorf("%s workers=%d: machine %+v, workers=1 built %+v", c.name, w, m.Machine.Stats(), ref.Machine.Stats())
			}
		}
	}
}

// TestTrainStageMetrics: with metrics enabled, one Train records exactly
// one dsgl_train_stage_seconds sample per pipeline stage.
func TestTrainStageMetrics(t *testing.T) {
	prev := obs.Default()
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(prev)
	if _, err := Train(tinyDataset(t, "traffic"), tinyOptions()); err != nil {
		t.Fatal(err)
	}
	for _, stage := range stageNames {
		h := reg.Histogram("dsgl_train_stage_seconds", "", obs.L("stage", stage))
		if h.Count() != 1 {
			t.Errorf("stage %s: %d samples, want 1", stage, h.Count())
		}
		if h.Sum() < 0 {
			t.Errorf("stage %s: negative time %g", stage, h.Sum())
		}
	}
}
