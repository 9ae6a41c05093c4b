package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRMSEBasic(t *testing.T) {
	if got := RMSE([]float64{1, 2}, []float64{1, 2}); got != 0 {
		t.Fatalf("perfect RMSE = %g", got)
	}
	got := RMSE([]float64{0, 0}, []float64{3, 4})
	want := math.Sqrt(12.5)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("RMSE = %g, want %g", got, want)
	}
}

func TestRMSEEmptyAndMismatch(t *testing.T) {
	if RMSE(nil, nil) != 0 {
		t.Fatal("empty RMSE should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RMSE([]float64{1}, []float64{1, 2})
}

func TestMAE(t *testing.T) {
	got := MAE([]float64{0, 0}, []float64{3, -4})
	if got != 3.5 {
		t.Fatalf("MAE = %g", got)
	}
}

func TestMAPE(t *testing.T) {
	got := MAPE([]float64{110, 90}, []float64{100, 100}, 1e-9)
	if math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("MAPE = %g", got)
	}
	// Zero targets skipped.
	got = MAPE([]float64{1, 110}, []float64{0, 100}, 1e-9)
	if math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("MAPE with zero target = %g", got)
	}
}

// TestMAPEAllSkipped is the silent-metric regression: when every target
// falls below eps there is no percentage to average, and the result must
// be NaN ("no measurement"), never 0 (a perfect score). The pre-fix code
// returned 0 here.
func TestMAPEAllSkipped(t *testing.T) {
	if got := MAPE([]float64{1}, []float64{0}, 1e-9); !math.IsNaN(got) {
		t.Fatalf("all-skipped MAPE = %g, want NaN", got)
	}
	if got := MAPE(nil, nil, 1e-9); !math.IsNaN(got) {
		t.Fatalf("empty MAPE = %g, want NaN", got)
	}
}

func TestMAPEWithCoverage(t *testing.T) {
	m, skipped := MAPEWithCoverage([]float64{1, 110}, []float64{0, 100}, 1e-9)
	if math.Abs(m-0.1) > 1e-12 || skipped != 1 {
		t.Fatalf("MAPEWithCoverage = (%g, %d), want (0.1, 1)", m, skipped)
	}
	m, skipped = MAPEWithCoverage([]float64{1, 2}, []float64{0, 0}, 1e-9)
	if !math.IsNaN(m) || skipped != 2 {
		t.Fatalf("all-skipped MAPEWithCoverage = (%g, %d), want (NaN, 2)", m, skipped)
	}
}

func TestAccumulatorMAPE(t *testing.T) {
	var acc Accumulator
	acc.Add(110, 100)
	acc.Add(90, 100)
	acc.Add(1, 0) // below MAPEEps: skipped
	if got := acc.MAPE(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("accumulator MAPE = %g, want 0.1", got)
	}
	if acc.MAPESkipped() != 1 {
		t.Fatalf("MAPESkipped = %d, want 1", acc.MAPESkipped())
	}
	var empty Accumulator
	empty.Add(1, 0)
	if !math.IsNaN(empty.MAPE()) || empty.MAPESkipped() != 1 {
		t.Fatalf("all-skipped accumulator MAPE = %g (skipped %d), want NaN (1)",
			empty.MAPE(), empty.MAPESkipped())
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	f := func(seed int64) bool {
		pred := make([]float64, 20)
		targ := make([]float64, 20)
		s := uint64(seed)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11)/(1<<53)*2 - 1
		}
		for i := range pred {
			pred[i] = next()
			targ[i] = next()
		}
		var acc Accumulator
		acc.AddVec(pred, targ)
		return math.Abs(acc.RMSE()-RMSE(pred, targ)) < 1e-12 &&
			math.Abs(acc.MAE()-MAE(pred, targ)) < 1e-12 &&
			acc.N() == 20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var acc Accumulator
	if acc.RMSE() != 0 || acc.MAE() != 0 || acc.N() != 0 {
		t.Fatal("empty accumulator must be zero")
	}
}
