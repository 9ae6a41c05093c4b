package gnn

import (
	"math"
	"testing"

	"dsgl/internal/datasets"
	"dsgl/internal/rng"
	"dsgl/internal/tensor"
)

func tinyDataset(t *testing.T, name string) *datasets.Dataset {
	t.Helper()
	return datasets.Generate(name, datasets.Config{N: 12, T: 80, History: 4, Horizon: 1})
}

func TestGeometryOf(t *testing.T) {
	d := tinyDataset(t, "traffic")
	g := GeometryOf(d)
	if g.N != 12 || g.F != 1 || g.P != 4 || g.Q != 1 || g.U != 1 {
		t.Fatalf("geometry = %+v", g)
	}
	h := datasets.Generate("housing", datasets.Config{N: 8, T: 60})
	gh := GeometryOf(h)
	if gh.U != 1 {
		t.Fatalf("housing predicts one feature, got U=%d", gh.U)
	}
	if gh.InCols() != h.History*h.F || gh.OutCols() != h.Horizon {
		t.Fatalf("col widths: in %d out %d", gh.InCols(), gh.OutCols())
	}
}

func TestWindowInputTargetLayout(t *testing.T) {
	d := tinyDataset(t, "traffic")
	w := d.Window(2)
	in := WindowInput(d, w)
	if in.Rows != d.N || in.Cols != d.History*d.F {
		t.Fatalf("input shape %dx%d", in.Rows, in.Cols)
	}
	if in.At(3, 1) != d.At(3, 3, 0) { // start=2, step=1, node=3
		t.Fatal("input layout mismatch")
	}
	tgt := WindowTarget(d, w)
	if tgt.Rows != d.N || tgt.Cols != d.Horizon {
		t.Fatalf("target shape %dx%d", tgt.Rows, tgt.Cols)
	}
	if tgt.At(5, 0) != d.At(2+d.History, 5, 0) {
		t.Fatal("target layout mismatch")
	}
}

func TestWindowTargetMultiFeature(t *testing.T) {
	d := datasets.Generate("climate", datasets.Config{N: 8, T: 60})
	w := d.Window(0)
	tgt := WindowTarget(d, w)
	if tgt.Cols != d.Horizon {
		t.Fatalf("climate predicts feature 0 only; cols = %d", tgt.Cols)
	}
	if tgt.At(2, 0) != d.At(d.History, 2, 0) {
		t.Fatal("multi-feature target layout mismatch")
	}
}

func TestAllBaselinesForwardShapes(t *testing.T) {
	d := tinyDataset(t, "pm25")
	w := d.Window(0)
	in := WindowInput(d, w)
	geom := GeometryOf(d)
	for _, name := range BaselineNames() {
		m, err := NewBaseline(name, d, 1)
		if err != nil {
			t.Fatal(err)
		}
		out := m.Forward(in)
		if out.Rows != geom.N || out.Cols != geom.OutCols() {
			t.Fatalf("%s output %dx%d, want %dx%d", name, out.Rows, out.Cols, geom.N, geom.OutCols())
		}
		for _, v := range out.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s produced non-finite output", name)
			}
		}
		if m.FLOPs() <= 0 {
			t.Fatalf("%s FLOPs = %g", name, m.FLOPs())
		}
		if paramCount(m.Params()) == 0 {
			t.Fatalf("%s has no params", name)
		}
	}
}

func TestNewBaselineUnknown(t *testing.T) {
	d := tinyDataset(t, "pm25")
	if _, err := NewBaseline("nope", d, 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	d := tinyDataset(t, "traffic")
	trainW, _ := d.Split()
	for _, name := range BaselineNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := NewBaseline(name, d, 2)
			if err != nil {
				t.Fatal(err)
			}
			before := Evaluate(m, d, trainW)
			if _, err := Train(m, d, trainW, TrainConfig{Epochs: 8, Seed: 3}); err != nil {
				t.Fatal(err)
			}
			after := Evaluate(m, d, trainW)
			if after >= before {
				t.Fatalf("%s training did not improve: %g -> %g", name, before, after)
			}
		})
	}
}

func TestTrainedModelBeatsMeanPredictor(t *testing.T) {
	d := tinyDataset(t, "pm25")
	trainW, testW := d.Split()
	m, err := NewBaseline("GWN", d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(m, d, trainW, TrainConfig{Epochs: 15, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	rmse := Evaluate(m, d, testW)
	// Baseline: predict the per-dataset mean (0 after normalization is a
	// decent proxy; compute the actual mean target for fairness).
	var sum float64
	var cnt int
	for _, w := range testW {
		tgt := WindowTarget(d, w)
		for _, v := range tgt.Data {
			sum += v
			cnt++
		}
	}
	mean := sum / float64(cnt)
	var sq float64
	for _, w := range testW {
		tgt := WindowTarget(d, w)
		for _, v := range tgt.Data {
			sq += (v - mean) * (v - mean)
		}
	}
	meanRMSE := math.Sqrt(sq / float64(cnt))
	if rmse >= meanRMSE {
		t.Fatalf("trained GWN RMSE %g not better than mean predictor %g", rmse, meanRMSE)
	}
}

func TestTrainErrorsOnEmptyWindows(t *testing.T) {
	d := tinyDataset(t, "traffic")
	m, _ := NewBaseline("GWN", d, 1)
	if _, err := Train(m, d, nil, TrainConfig{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestNormalizedAdjRowsSumToOne(t *testing.T) {
	d := tinyDataset(t, "traffic")
	a := normalizedAdj(d.Adj)
	for i := 0; i < d.N; i++ {
		var sum float64
		for j := 0; j < d.N; j++ {
			sum += a.At(i, j)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
}

func TestTrainingDeterministic(t *testing.T) {
	d := tinyDataset(t, "stock")
	trainW, _ := d.Split()
	run := func() float64 {
		m, err := NewBaseline("MTGNN", d, 7)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Train(m, d, trainW, TrainConfig{Epochs: 3, Seed: 9}); err != nil {
			t.Fatal(err)
		}
		return Evaluate(m, d, trainW)
	}
	if run() != run() {
		t.Fatal("training must be deterministic under fixed seeds")
	}
}

func TestDDGCRNUsesAllHistorySteps(t *testing.T) {
	// Changing an early history step must change the output (the GRU must
	// actually consume the sequence).
	d := tinyDataset(t, "traffic")
	m, err := NewBaseline("DDGCRN", d, 11)
	if err != nil {
		t.Fatal(err)
	}
	w := d.Window(0)
	in := WindowInput(d, w)
	out1 := m.Forward(in)
	in2 := tensor.FromData(in.Rows, in.Cols, append([]float64(nil), in.Data...))
	in2.Set(0, 0, in2.At(0, 0)+0.3) // perturb first step of node 0
	out2 := m.Forward(in2)
	diff := false
	for i := range out1.Data {
		if out1.Data[i] != out2.Data[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("DDGCRN ignored the first history step")
	}
}

func TestFLOPsScaleWithSize(t *testing.T) {
	small := datasets.Generate("traffic", datasets.Config{N: 8, T: 60})
	big := datasets.Generate("traffic", datasets.Config{N: 32, T: 60})
	r := rng.New(1)
	ms := NewGWN(GeometryOf(small), small.Adj, 32, 2, r)
	mb := NewGWN(GeometryOf(big), big.Adj, 32, 2, r)
	if mb.FLOPs() <= ms.FLOPs() {
		t.Fatal("FLOPs must grow with graph size")
	}
}

func TestMultiFeatureTraining(t *testing.T) {
	d := datasets.Generate("climate", datasets.Config{N: 8, T: 120})
	trainW, _ := d.Split()
	trainW = trainW[:40]
	for _, name := range BaselineNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := NewBaseline(name, d, 3)
			if err != nil {
				t.Fatal(err)
			}
			before := Evaluate(m, d, trainW)
			if _, err := Train(m, d, trainW, TrainConfig{Epochs: 5, Seed: 4}); err != nil {
				t.Fatal(err)
			}
			after := Evaluate(m, d, trainW)
			if after >= before {
				t.Fatalf("%s multi-feature training did not improve: %g -> %g", name, before, after)
			}
			out := m.Forward(WindowInput(d, trainW[0]))
			if out.Cols != d.Horizon { // predict feature 0 only
				t.Fatalf("%s output cols %d, want %d", name, out.Cols, d.Horizon)
			}
		})
	}
}

func TestGWNAdaptiveAdjacencyRowStochastic(t *testing.T) {
	d := tinyDataset(t, "traffic")
	g, err := NewBaseline("GWN", d, 5)
	if err != nil {
		t.Fatal(err)
	}
	adp := g.(*GWN).adaptiveAdj()
	for i := 0; i < adp.Rows; i++ {
		var sum float64
		for j := 0; j < adp.Cols; j++ {
			v := adp.At(i, j)
			if v < 0 {
				t.Fatal("negative adjacency weight")
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
}

// paramCount sums the element counts of a parameter list.
func paramCount(ps []*tensor.Tensor) int {
	total := 0
	for _, p := range ps {
		total += len(p.Data)
	}
	return total
}
