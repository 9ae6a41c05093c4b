package dsgl

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"dsgl/internal/engine"
	"dsgl/internal/metrics"
)

// tinyDataset keeps integration tests fast: a short series on a small
// graph.
func tinyDataset(t testing.TB, name string) *Dataset {
	t.Helper()
	return GenerateDataset(name, DatasetConfig{N: 16, T: 400, History: 4, Horizon: 1, Seed: 2})
}

func tinyOptions() Options {
	return Options{
		Density:    0.15,
		PECapacity: 24,
		MaxInferNs: 3000,
		Seed:       5,
	}
}

func TestTrainEndToEnd(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Tuned.Validate(); err != nil {
		t.Fatal(err)
	}
	if model.Assignment.NumPEs() < 2 {
		t.Fatalf("expected a multi-PE grid, got %d PEs", model.Assignment.NumPEs())
	}
	_, test := ds.Split()
	rep, err := model.Evaluate(test[:10])
	if err != nil {
		t.Fatal(err)
	}
	if rep.RMSE <= 0 || rep.RMSE > 0.5 {
		t.Fatalf("implausible RMSE %g", rep.RMSE)
	}
	if rep.MeanLatencyUs <= 0 {
		t.Fatal("latency not recorded")
	}
}

func TestModelBeatsMeanAndPersistence(t *testing.T) {
	// Longer series than tinyDataset: pm25 is persistent-diffusive, so the
	// persistence baseline is strong and the model needs enough training
	// windows for a robust margin. (The pm25/pm10 seed-collision fix
	// changed this dataset's realization; at T=400 the old margin was
	// luck-of-the-draw thin.)
	ds := GenerateDataset("pm25", DatasetConfig{N: 16, T: 800, History: 4, Horizon: 1, Seed: 2})
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, test := ds.Split()
	if len(test) > 25 {
		test = test[:25]
	}
	rep, err := model.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	// Persistence baseline: repeat the last observed value.
	var persist metrics.Accumulator
	for _, w := range test {
		for _, idx := range ds.UnknownIndices() {
			node := (idx / ds.F) % ds.N
			last := w.Full[((ds.History-1)*ds.N+node)*ds.F]
			persist.Add(last, w.Full[idx])
		}
	}
	if rep.RMSE >= persist.RMSE() {
		t.Fatalf("DS-GL RMSE %g not better than persistence %g", rep.RMSE, persist.RMSE())
	}
}

func TestPredictAlignsWithEvaluate(t *testing.T) {
	ds := tinyDataset(t, "no2")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, test := ds.Split()
	p, err := model.Predict(test[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Values) != len(ds.UnknownIndices()) || len(p.Truth) != len(p.Values) {
		t.Fatalf("prediction sizes: %d values, %d truth", len(p.Values), len(p.Truth))
	}
	rep, err := model.Evaluate(test[:1])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.RMSE-metrics.RMSE(p.Values, p.Truth)) > 1e-12 {
		t.Fatal("Evaluate over one window must equal Predict's RMSE")
	}
}

func TestPredictRejectsWrongWindow(t *testing.T) {
	ds := tinyDataset(t, "no2")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Predict(Window{Full: make([]float64, 3)}); err == nil {
		t.Fatal("expected error for mis-sized window")
	}
}

func TestDeterministicPipeline(t *testing.T) {
	ds := tinyDataset(t, "stock")
	run := func() float64 {
		model, err := Train(ds, tinyOptions())
		if err != nil {
			t.Fatal(err)
		}
		_, test := ds.Split()
		rep, err := model.Evaluate(test[:5])
		if err != nil {
			t.Fatal(err)
		}
		return rep.RMSE
	}
	if run() != run() {
		t.Fatal("pipeline must be deterministic under a fixed seed")
	}
}

func TestDenseInitReuse(t *testing.T) {
	ds := tinyDataset(t, "covid")
	dense, err := TrainDense(ds, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opts := tinyOptions()
	opts.DenseInit = dense
	model, err := Train(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if model.Dense != dense {
		t.Fatal("DenseInit must be used as-is")
	}
	bad := tinyOptions()
	bad.DenseInit = dense
	dsBig := GenerateDataset("covid", DatasetConfig{N: 20, T: 400, History: 4, Horizon: 1})
	if _, err := Train(dsBig, bad); err == nil {
		t.Fatal("expected error for DenseInit dim mismatch")
	}
}

func TestMaskConfinement(t *testing.T) {
	ds := tinyDataset(t, "o3")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Every non-zero coupling must respect the density budget.
	j := model.Tuned.J
	density := float64(j.NNZ(0)) / float64(len(j.Data))
	if density > model.Opts.Density+1e-9 {
		t.Fatalf("tuned density %g exceeds budget %g", density, model.Opts.Density)
	}
}

func TestSpatialVariantFasterButLossier(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	dense, err := TrainDense(ds, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, test := ds.Split()
	test = test[:10]

	base := tinyOptions()
	base.DenseInit = dense
	base.Lanes = 4 // tight budget so the spatial variant must drop couplings
	full, err := Train(ds, base)
	if err != nil {
		t.Fatal(err)
	}
	spatialOpts := base
	spatialOpts.TemporalDisabled = true
	spatial, err := Train(ds, spatialOpts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Machine.Stats().Rounds <= 1 {
		t.Skip("system fit in one round; spatial/temporal identical")
	}
	repFull, err := full.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	repSpatial, err := spatial.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if repSpatial.MeanLatencyUs >= repFull.MeanLatencyUs {
		t.Fatalf("spatial latency %g should be below temporal %g",
			repSpatial.MeanLatencyUs, repFull.MeanLatencyUs)
	}
	if repSpatial.RMSE <= repFull.RMSE {
		t.Fatalf("spatial RMSE %g should be above temporal %g (accuracy traded for latency)",
			repSpatial.RMSE, repFull.RMSE)
	}
}

func TestPatternRichnessOrdering(t *testing.T) {
	ds := GenerateDataset("traffic", DatasetConfig{N: 24, T: 500, History: 4, Horizon: 1, Seed: 3})
	dense, err := TrainDense(ds, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, test := ds.Split()
	test = test[:15]
	rmse := map[Pattern]float64{}
	for _, p := range []Pattern{Chain, DMesh} {
		model, err := Train(ds, Options{
			Pattern: p, Density: 0.03, PECapacity: 16, Wormholes: 1,
			DenseInit: dense, MaxInferNs: 3000, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := model.Evaluate(test)
		if err != nil {
			t.Fatal(err)
		}
		rmse[p] = rep.RMSE
	}
	if rmse[DMesh] > rmse[Chain]*1.02 {
		t.Fatalf("DMesh RMSE %g should not exceed Chain %g", rmse[DMesh], rmse[Chain])
	}
}

func TestNoiseRobustness(t *testing.T) {
	ds := tinyDataset(t, "no2")
	dense, err := TrainDense(ds, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, test := ds.Split()
	test = test[:10]
	clean := tinyOptions()
	clean.DenseInit = dense
	cm, err := Train(ds, clean)
	if err != nil {
		t.Fatal(err)
	}
	noisy := clean
	noisy.NodeNoise, noisy.CouplerNoise = 0.05, 0.05
	nm, err := Train(ds, noisy)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := cm.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	nr, err := nm.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if nr.RMSE > cr.RMSE*1.5 {
		t.Fatalf("5%% analog noise blew up RMSE: %g -> %g", cr.RMSE, nr.RMSE)
	}
}

func TestDenseInferMatchesPipelineRegime(t *testing.T) {
	ds := tinyDataset(t, "pm10")
	dense, err := TrainDense(ds, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, test := ds.Split()
	p, err := DenseInfer(ds, dense, test[0], 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Values) != len(ds.UnknownIndices()) {
		t.Fatalf("dense inference produced %d values", len(p.Values))
	}
	if metrics.RMSE(p.Values, p.Truth) > 0.5 {
		t.Fatalf("dense inference implausibly bad: %g", metrics.RMSE(p.Values, p.Truth))
	}
}

func TestEvaluateEmptyWindowsErrors(t *testing.T) {
	ds := tinyDataset(t, "no2")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Evaluate([]Window{}); err == nil {
		t.Fatal("expected error for empty window list")
	}
}

func TestAutoLambdaSelected(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, lam := range []float64{0.03, 0.1, 0.3, 1, 3} {
		if model.Opts.RidgeLambda == lam {
			found = true
		}
	}
	if !found {
		t.Fatalf("auto lambda %g not from the candidate grid", model.Opts.RidgeLambda)
	}
}

// TestOptionsFillDefaults is the table test for every Options field's
// zero-value behaviour, including the negative sentinels (Wormholes,
// TrainEpochs, Workers) documented on the type.
func TestOptionsFillDefaults(t *testing.T) {
	maxProcs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name string
		in   Options
		want Options
	}{
		{
			name: "all-defaults",
			in:   Options{},
			want: Options{
				Backend: BackendScalable, Pattern: Chain, Density: 0.10,
				Wormholes: 4, PECapacity: 48,
				Lanes: 30, TrainEpochs: -1, SyncIntervalNs: 200,
				MaxInferNs: 10000, Workers: maxProcs,
			},
		},
		{
			name: "explicit-values-kept",
			in: Options{
				Pattern: DMesh, Density: 0.25, Wormholes: 2, PECapacity: 16,
				Lanes: 6, TemporalDisabled: true, RidgeLambda: 0.3,
				TrainEpochs: 5, FineTuneEpochs: 3, SyncIntervalNs: 50,
				MaxInferNs: 500, NodeNoise: 0.1, CouplerNoise: 0.2,
				Workers: 3, Seed: 11,
			},
			want: Options{
				Backend: BackendScalable, Pattern: DMesh, Density: 0.25,
				Wormholes: 2, PECapacity: 16,
				Lanes: 6, TemporalDisabled: true, RidgeLambda: 0.3,
				TrainEpochs: 5, FineTuneEpochs: 3, SyncIntervalNs: 50,
				MaxInferNs: 500, NodeNoise: 0.1, CouplerNoise: 0.2,
				Workers: 3, Seed: 11,
			},
		},
		{
			name: "negative-sentinels",
			in:   Options{Wormholes: -1, TrainEpochs: -7, Workers: -1},
			want: Options{
				Backend: BackendScalable, Pattern: Chain, Density: 0.10,
				Wormholes: -1, PECapacity: 48,
				Lanes: 30, TrainEpochs: -7, SyncIntervalNs: 200,
				MaxInferNs: 10000, Workers: 1,
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.in
			got.fillDefaults()
			if got != tc.want {
				t.Fatalf("fillDefaults:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}

// TestEvaluateParallelBitIdentical is the top-level determinism contract:
// EvaluateParallel must reproduce Evaluate's report exactly — RMSE, MAE,
// mean latency — for any worker count, because both seed window i with
// machineSeed + i and accumulate metrics in window order.
func TestEvaluateParallelBitIdentical(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, test := ds.Split()
	test = test[:12]
	ref, err := model.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8, 0} {
		par, err := model.EvaluateParallel(test, workers)
		if err != nil {
			t.Fatal(err)
		}
		if par.RMSE != ref.RMSE || par.MAE != ref.MAE ||
			par.MeanLatencyUs != ref.MeanLatencyUs || par.Windows != ref.Windows {
			t.Fatalf("workers=%d: parallel report %+v != sequential %+v",
				workers, par, ref)
		}
	}
}

// TestDeprecatedOptionsIgnored: ShardWorkers and ShardSyncNs are read by
// nothing. A model trained with them must anneal exactly like the
// default-options model, and so must its Save→Load copy: probe Results
// and the EvaluateParallel report, bit for bit.
func TestDeprecatedOptionsIgnored(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	ref, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := tinyOptions()
	opts.ShardWorkers, opts.ShardSyncNs = 4, 50
	trained, err := Train(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, ds)
	if err != nil {
		t.Fatal(err)
	}
	_, test := ds.Split()
	test = test[:8]
	probes := func(m *Model) []*engine.Result {
		t.Helper()
		reqs := make([]engine.Request, len(test))
		for i, w := range test {
			obs, err := m.WindowObservations(w)
			if err != nil {
				t.Fatal(err)
			}
			reqs[i] = engine.Request{Obs: obs, Seed: m.Engine().BaseSeed() + uint64(i)}
		}
		res, err := m.Engine().RunBatch(reqs, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	report := func(m *Model) string {
		t.Helper()
		rep, err := m.EvaluateParallel(test, 2)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", *rep)
	}
	wantRes, wantRep := probes(ref), report(ref)
	for name, m := range map[string]*Model{"trained": trained, "loaded": loaded} {
		c := VerifyCheck{Invariant: "deprecated-options"}
		for i, res := range probes(m) {
			sameResult(&c, fmt.Sprintf("%s probe %d", name, i), wantRes[i], res)
		}
		for _, v := range c.Violations {
			t.Error(v.Detail)
		}
		if got := report(m); got != wantRep {
			t.Errorf("%s: EvaluateParallel report %s, want %s", name, got, wantRep)
		}
	}
}

// TestValidationCountPinsSplit pins the lambda-selection validation split
// to the documented "last 15%" (floor), computed in exact integer
// arithmetic as n*3/20. The table includes n=20, where the old len/7 code
// path gave 2 windows and a float round-trip int(20*0.15) also gives 2 —
// both wrong against the documented 3.
func TestValidationCountPinsSplit(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {6, 0}, {7, 1}, {13, 1}, {19, 2},
		{20, 3}, {27, 4}, {40, 6}, {100, 15}, {133, 19}, {340, 51},
	}
	for _, tc := range cases {
		if got := validationCount(tc.n); got != tc.want {
			t.Errorf("validationCount(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	// The reconciliation is observable: the old code's n/7 disagrees.
	if old, now := 20/7, validationCount(20); old == now {
		t.Fatal("test premise broken: n=20 no longer distinguishes n/7 from 15%")
	}
}

// TestTrainDenseRejectsMalformedDataset pins the admission check of both
// training entry points. Before the first fix TrainDense skipped the
// ds.Validate() call Train performs, so a malformed dataset panicked deep
// inside Split/ridge instead of returning an error. Before the second,
// Validate checked only shapes: one NaN in the series made every lambda
// candidate score NaN and every dense coupling NaN, pruning dropped them
// all, and Train returned a zero-coupling model without error.
func TestTrainDenseRejectsMalformedDataset(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(ds *Dataset)
		want    string // substring the error must contain
	}{
		{"truncated series", func(ds *Dataset) { ds.X = ds.X[:len(ds.X)-3] }, "data length"},
		{"NaN value", func(ds *Dataset) { ds.X[3*ds.N+5] = math.NaN() }, "t=3 node=5"},
		{"+Inf value", func(ds *Dataset) { ds.X[3*ds.N+5] = math.Inf(1) }, "t=3 node=5"},
		{"-Inf value", func(ds *Dataset) { ds.X[3*ds.N+5] = math.Inf(-1) }, "t=3 node=5"},
	}
	for _, tc := range cases {
		ds := tinyDataset(t, "traffic")
		tc.corrupt(ds)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: TrainDense panicked: %v", tc.name, r)
				}
			}()
			if _, err := TrainDense(ds, Options{Seed: 5}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: TrainDense error %v, want one containing %q", tc.name, err, tc.want)
			}
		}()
		if _, err := Train(ds, tinyOptions()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Train error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestDenseInferRejectsMismatchedWindow pins the DenseInfer geometry
// check: a window shorter or longer than the parameter dimension must be
// rejected up front (before the fix a short window panicked indexing
// w.Full and a long one silently clamped garbage).
func TestDenseInferRejectsMismatchedWindow(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	dense, err := TrainDense(ds, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, test := ds.Split()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("DenseInfer panicked on a mismatched window: %v", r)
		}
	}()
	short := Window{Full: test[0].Full[:len(test[0].Full)-1]}
	if _, err := DenseInfer(ds, dense, short, 9); err == nil {
		t.Fatal("DenseInfer accepted a short window")
	}
	long := Window{Full: append(append([]float64(nil), test[0].Full...), 0)}
	if _, err := DenseInfer(ds, dense, long, 9); err == nil {
		t.Fatal("DenseInfer accepted a long window")
	}
	// The matched window still works.
	if _, err := DenseInfer(ds, dense, test[0], 9); err != nil {
		t.Fatalf("DenseInfer rejected a well-formed window: %v", err)
	}
}
