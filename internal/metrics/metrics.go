// Package metrics provides the evaluation metrics used across the
// reproduction. The paper reports accuracy as RMSE on normalized data;
// MAE and MAPE are included for completeness.
package metrics

import (
	"fmt"
	"math"
)

// RMSE returns the root-mean-square error between predictions and targets.
func RMSE(pred, target []float64) float64 {
	if len(pred) != len(target) {
		panic(fmt.Sprintf("metrics: RMSE length mismatch %d vs %d", len(pred), len(target)))
	}
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i, p := range pred {
		d := p - target[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}

// MAE returns the mean absolute error.
func MAE(pred, target []float64) float64 {
	if len(pred) != len(target) {
		panic("metrics: MAE length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i, p := range pred {
		s += math.Abs(p - target[i])
	}
	return s / float64(len(pred))
}

// MAPE returns the mean absolute percentage error, skipping targets with
// |t| < eps to avoid division blow-up. When every target is skipped the
// result is NaN — "no measurement", never 0, which would read as a
// perfect score. Use MAPEWithCoverage when the caller needs to report how
// many pairs the average actually covers.
func MAPE(pred, target []float64, eps float64) float64 {
	m, _ := MAPEWithCoverage(pred, target, eps)
	return m
}

// MAPEWithCoverage is MAPE plus the number of pairs skipped because the
// target magnitude fell below eps. mape is NaN when every pair was
// skipped (skipped == len(target)), including the empty input.
func MAPEWithCoverage(pred, target []float64, eps float64) (mape float64, skipped int) {
	if len(pred) != len(target) {
		panic("metrics: MAPE length mismatch")
	}
	var s float64
	n := 0
	for i, p := range pred {
		if math.Abs(target[i]) < eps {
			skipped++
			continue
		}
		s += math.Abs((p - target[i]) / target[i])
		n++
	}
	if n == 0 {
		return math.NaN(), skipped
	}
	return s / float64(n), skipped
}

// MAPEEps is the |target| threshold the Accumulator's streaming MAPE
// uses: pairs whose target magnitude falls below it are excluded from the
// percentage average (and counted as skipped) instead of blowing up the
// division.
const MAPEEps = 1e-9

// Accumulator streams squared-error statistics so long evaluation loops do
// not need to retain every prediction.
type Accumulator struct {
	n         int
	sumSq     float64
	sumAbs    float64
	sumAbsPct float64
	nPct      int
}

// Add records one prediction/target pair.
func (a *Accumulator) Add(pred, target float64) {
	d := pred - target
	a.sumSq += d * d
	a.sumAbs += math.Abs(d)
	a.n++
	if math.Abs(target) >= MAPEEps {
		a.sumAbsPct += math.Abs(d / target)
		a.nPct++
	}
}

// AddVec records a vector of pairs.
func (a *Accumulator) AddVec(pred, target []float64) {
	if len(pred) != len(target) {
		panic("metrics: AddVec length mismatch")
	}
	for i := range pred {
		a.Add(pred[i], target[i])
	}
}

// N returns the number of recorded pairs.
func (a *Accumulator) N() int { return a.n }

// RMSE returns the running root-mean-square error.
func (a *Accumulator) RMSE() float64 {
	if a.n == 0 {
		return 0
	}
	return math.Sqrt(a.sumSq / float64(a.n))
}

// MAE returns the running mean absolute error.
func (a *Accumulator) MAE() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sumAbs / float64(a.n)
}

// MAPE returns the running mean absolute percentage error over the pairs
// whose |target| >= MAPEEps. NaN when no pair qualified — callers should
// render that as "n/a", not as a (perfect-looking) zero.
func (a *Accumulator) MAPE() float64 {
	if a.nPct == 0 {
		return math.NaN()
	}
	return a.sumAbsPct / float64(a.nPct)
}

// MAPESkipped returns how many recorded pairs were excluded from the
// percentage average because their target magnitude fell below MAPEEps.
func (a *Accumulator) MAPESkipped() int { return a.n - a.nPct }
