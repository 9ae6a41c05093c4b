package dsgl

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dsgl/internal/verify"
)

func denseOptions() Options {
	o := tinyOptions()
	o.Backend = BackendDense
	return o
}

func TestTrainRejectsUnknownBackend(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	opts := tinyOptions()
	opts.Backend = "quantum"
	_, err := Train(ds, opts)
	if err == nil {
		t.Fatal("expected an error for an unknown backend")
	}
	for _, want := range []string{"quantum", BackendScalable, BackendDense} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestTrainRejectsBadOptions: every option value the pipeline cannot run
// must fail Train with an error, never a panic or a silently different
// model. Dense-backend noise is rejected because the dense DSPU models no
// analog noise: a noisy dense model used to predict exactly like the
// noise-free one.
func TestTrainRejectsBadOptions(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	for _, tc := range []struct {
		name string
		edit func(*Options)
	}{
		{"NaN density", func(o *Options) { o.Density = math.NaN() }},
		{"negative density", func(o *Options) { o.Density = -0.1 }},
		{"density above 1", func(o *Options) { o.Density = 2 }},
		{"infinite density", func(o *Options) { o.Density = math.Inf(1) }},
		{"NaN RidgeLambda", func(o *Options) { o.RidgeLambda = math.NaN() }},
		{"NaN node noise", func(o *Options) { o.NodeNoise = math.NaN() }},
		{"negative coupler noise", func(o *Options) { o.CouplerNoise = -0.05 }},
		{"negative MaxInferNs", func(o *Options) { o.MaxInferNs = -1 }},
		{"infinite SyncIntervalNs", func(o *Options) { o.SyncIntervalNs = math.Inf(1) }},
		{"NaN SyncIntervalNs", func(o *Options) { o.SyncIntervalNs = math.NaN() }},
		{"infinite ShardSyncNs", func(o *Options) { o.ShardSyncNs = math.Inf(1) }},
		{"dense node noise", func(o *Options) { o.Backend = BackendDense; o.NodeNoise = 0.05 }},
		{"dense coupler noise", func(o *Options) { o.Backend = BackendDense; o.CouplerNoise = 0.05 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Train panicked: %v", r)
				}
			}()
			opts := tinyOptions()
			tc.edit(&opts)
			if _, err := Train(ds, opts); err == nil {
				t.Fatal("Train accepted the options")
			}
		})
	}
}

func TestDenseBackendEndToEnd(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, denseOptions())
	if err != nil {
		t.Fatal(err)
	}
	if model.Machine != nil {
		t.Fatal("dense backend must not compile a scalable machine")
	}
	if model.Dspu == nil {
		t.Fatal("dense backend did not build a DSPU")
	}
	if model.Assignment != nil {
		t.Fatal("dense backend must skip decomposition")
	}
	if model.Tuned != model.Dense {
		t.Fatal("dense backend: Tuned must alias the dense parameter set")
	}
	_, test := ds.Split()
	rep, err := model.Evaluate(test[:8])
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(rep.RMSE) || rep.RMSE <= 0 || rep.RMSE > 2 {
		t.Fatalf("dense RMSE %g out of plausible range", rep.RMSE)
	}
	if rep.Mode != "dense" {
		t.Fatalf("mode %q, want dense", rep.Mode)
	}
	if rep.MeanLatencyUs <= 0 {
		t.Fatalf("latency %g not positive", rep.MeanLatencyUs)
	}
	p, err := model.Predict(test[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != "dense" || len(p.Values) != len(ds.UnknownIndices()) {
		t.Fatalf("prediction mode %q with %d values", p.Mode, len(p.Values))
	}
}

// TestDenseBackendSeqParIdentity pins the engine contract on the dense
// backend: EvaluateParallel is bit-identical to Evaluate for any worker
// count, exactly as on the scalable backend.
func TestDenseBackendSeqParIdentity(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, denseOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, test := ds.Split()
	seq, err := model.Evaluate(test[:10])
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		par, err := model.EvaluateParallel(test[:10], workers)
		if err != nil {
			t.Fatal(err)
		}
		if seq.RMSE != par.RMSE || seq.MAE != par.MAE || seq.MeanLatencyUs != par.MeanLatencyUs {
			t.Fatalf("workers=%d: parallel report diverges: %+v vs %+v", workers, par, seq)
		}
	}
}

// TestDenseBackendVerify runs the invariant harness against a dense model.
// Since the v3 snapshot format the formerly scalable-only checks — snapshot
// round-trip and lossless compilation — run on the dense backend too:
// invariants 1-6 and 8 must execute (not skip) and hold. Only the sharded
// fixed-point check skips: a dense model has no community structure to
// shard.
func TestDenseBackendVerify(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, denseOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := model.Verify(VerifyOptions{Windows: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		for _, v := range rep.Violations() {
			t.Logf("violation [%s]: %s", v.Invariant, v.Detail)
		}
		t.Fatal("dense model violates invariants")
	}
	ran := map[string]bool{}
	for _, c := range rep.Checks {
		if !c.Skipped {
			ran[c.Invariant] = true
		}
	}
	for _, inv := range []string{
		verify.InvEnergyDescent, verify.InvSettleResidual,
		verify.InvSnapshotRoundTrip, verify.InvSeqParIdentity,
		verify.InvLosslessCompile, verify.InvPlanNaiveIdentity,
		verify.InvWarmStartFixedPoint, verify.InvDecomposedK1Identity,
	} {
		if !ran[inv] {
			t.Errorf("check %s did not run on the dense backend", inv)
		}
	}
	if ran[verify.InvShardedFixedPoint] {
		t.Error("sharded fixed-point check should skip on the dense backend")
	}
}

// TestDenseBackendSaveRoundTrip is the dense-persistence regression: Save
// used to reject dense models outright ("Save supports the scalable backend
// only"); the v3 snapshot format persists them, and the loaded model must
// be observationally bit-identical — same effective coupling matrix and
// bit-identical probe inference and evaluation reports.
func TestDenseBackendSaveRoundTrip(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, denseOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatalf("Save on a dense model: %v", err)
	}
	loaded, err := Load(&buf, ds)
	if err != nil {
		t.Fatalf("Load of a dense snapshot: %v", err)
	}
	if loaded.Dspu == nil || loaded.Machine != nil {
		t.Fatal("dense snapshot did not load as a dense model")
	}
	if loaded.Opts.Backend != BackendDense {
		t.Fatalf("loaded backend %q, want %q", loaded.Opts.Backend, BackendDense)
	}
	if vs := verify.DenseEqual("round-trip", "EffectiveJ",
		model.Dspu.EffectiveJ(), loaded.Dspu.EffectiveJ()); len(vs) > 0 {
		t.Fatalf("effective J diverges across Save/Load: %v", vs[0].Detail)
	}
	_, test := ds.Split()
	want, err := model.Evaluate(test[:6])
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Evaluate(test[:6])
	if err != nil {
		t.Fatal(err)
	}
	if want.RMSE != got.RMSE || want.MAE != got.MAE || want.MeanLatencyUs != got.MeanLatencyUs {
		t.Fatalf("loaded dense model diverges: %+v vs %+v", got, want)
	}
}
