// Package datasets provides the graph-learning workloads of the evaluation.
//
// The paper uses seven proprietary/real datasets (traffic in Japan, four
// Chinese air-quality reanalysis pollutants, US COVID-19 case counts, NASDAQ
// stock prices) plus two multi-feature ones (California housing, world
// climate). None of those are available offline, so this package generates
// synthetic equivalents: spatio-temporal signals on community-structured
// random geometric graphs, with per-dataset dynamics chosen to match each
// dataset's qualitative character (periodicity, diffusion, epidemic waves,
// correlated random walks). Every experiment in the paper compares methods
// on the same data, so the reproduction target — relative accuracy and its
// trends versus density, latency, noise — is preserved.
//
// All series are min-max normalized into [-0.8, +0.8] so they fit the DSPU
// voltage rails; the paper's RMSE figures are likewise on normalized data.
package datasets

import (
	"fmt"
	"math"

	"dsgl/internal/mat"
)

// Dataset is a spatio-temporal graph workload: N graph nodes, F features
// per node, T timesteps, and a weighted adjacency matrix. The prediction
// task is: given History steps (all features observed), predict the
// PredictFeature of the Horizon following steps.
type Dataset struct {
	Name string
	N    int // graph nodes
	F    int // features per node
	T    int // timesteps
	// Adj is the N x N symmetric non-negative adjacency used by the GNN
	// baselines and as the structural prior for graph generation.
	Adj *mat.Dense
	// Community holds the ground-truth community label of each node.
	Community []int
	// X holds the normalized data, row-major [t][n][f].
	X []float64
	// History (P) and Horizon (Q) define the prediction window.
	History, Horizon int
	// PredictFeature selects which feature is unknown in the horizon
	// steps; -1 means all features are predicted. Multi-feature datasets
	// predict feature 0 with the remaining features observed.
	PredictFeature int
	// TrainFrac is the fraction of windows (by time) used for training.
	TrainFrac float64
}

// At returns the value at timestep t, node n, feature f.
func (d *Dataset) At(t, n, f int) float64 {
	return d.X[(t*d.N+n)*d.F+f]
}

// set assigns the value at timestep t, node n, feature f.
func (d *Dataset) set(t, n, f int, v float64) {
	d.X[(t*d.N+n)*d.F+f] = v
}

// WindowLen returns the flattened length of one window vector:
// (History+Horizon) * N * F. This is the size of the dynamical system
// DS-GL constructs for the dataset.
func (d *Dataset) WindowLen() int { return (d.History + d.Horizon) * d.N * d.F }

// NumWindows returns how many windows the series yields.
func (d *Dataset) NumWindows() int {
	n := d.T - d.History - d.Horizon + 1
	if n < 0 {
		return 0
	}
	return n
}

// Window is one training/evaluation sample: the flattened window vector and
// the index layout helpers live on the parent Dataset.
type Window struct {
	// Full is the flattened vector of length WindowLen(): History steps
	// followed by Horizon steps, each step laid out [n][f].
	Full []float64
	// Start is the timestep of the first history step.
	Start int
}

// Window extracts the window starting at timestep start.
func (d *Dataset) Window(start int) Window {
	w := Window{Full: make([]float64, d.WindowLen()), Start: start}
	k := 0
	for s := 0; s < d.History+d.Horizon; s++ {
		for n := 0; n < d.N; n++ {
			for f := 0; f < d.F; f++ {
				w.Full[k] = d.At(start+s, n, f)
				k++
			}
		}
	}
	return w
}

// Split returns the train and test windows, split by time (train first) so
// no test information leaks into training.
//
// Window s spans timesteps [s, s+History+Horizon-1], so the last training
// window (start nTrain-1) reaches timestep nTrain+History+Horizon-2.
// Starting the test split at nTrain is therefore not enough: its first
// History+Horizon-1 windows begin inside that span, and their horizon
// targets are timesteps the trainer already saw as history/horizon
// values. The split gaps the test side by History+Horizon-1 windows —
// dropping the overlapping ones — so the first test window starts at
// timestep nTrain+History+Horizon-1 and no test window shares any
// timestep with any training window (asserted by
// TestSplitHorizonDisjoint).
func (d *Dataset) Split() (train, test []Window) {
	nTrain := d.trainWindows()
	for s := 0; s < nTrain; s++ {
		train = append(train, d.Window(s))
	}
	gap := d.History + d.Horizon - 1
	for s := nTrain + gap; s < d.NumWindows(); s++ {
		test = append(test, d.Window(s))
	}
	return train, test
}

// trainWindows returns how many windows, starting at timestep 0, form the
// training split.
func (d *Dataset) trainWindows() int {
	total := d.NumWindows()
	return min(total, max(1, int(float64(total)*d.TrainFrac)))
}

// TrainSamples returns the flattened vectors of Split's training windows,
// in the same order, without copying them: window s spans timesteps s to
// s+History+Horizon-1, which X already holds contiguously in the window
// layout, so each sample is a read-only view into X.
func (d *Dataset) TrainSamples() [][]float64 {
	stride, n := d.N*d.F, d.WindowLen()
	samples := make([][]float64, d.trainWindows())
	for s := range samples {
		samples[s] = d.X[s*stride : s*stride+n : s*stride+n]
	}
	return samples
}

// ObservedMask returns, for the flattened window vector, true where the
// entry is observed at inference time and false where it must be predicted:
// all history entries are observed; horizon entries are observed unless
// they carry the PredictFeature (or all horizon entries are unknown when
// PredictFeature == -1).
func (d *Dataset) ObservedMask() []bool {
	m := make([]bool, d.WindowLen())
	k := 0
	for s := 0; s < d.History+d.Horizon; s++ {
		hist := s < d.History
		for n := 0; n < d.N; n++ {
			for f := 0; f < d.F; f++ {
				if hist {
					m[k] = true
				} else if d.PredictFeature >= 0 && f != d.PredictFeature {
					m[k] = true
				}
				k++
			}
		}
	}
	return m
}

// UnknownIndices returns the flattened-window indices that must be
// predicted (the complement of ObservedMask).
func (d *Dataset) UnknownIndices() []int {
	mask := d.ObservedMask()
	var idx []int
	for i, obs := range mask {
		if !obs {
			idx = append(idx, i)
		}
	}
	return idx
}

// Validate checks internal consistency; New calls it once on every
// dataset it builds.
func (d *Dataset) Validate() error {
	if d.N <= 0 || d.F <= 0 || d.T <= 0 {
		return fmt.Errorf("datasets: %s has non-positive dims N=%d F=%d T=%d", d.Name, d.N, d.F, d.T)
	}
	if len(d.X) != d.T*d.N*d.F {
		return fmt.Errorf("datasets: %s data length %d, want %d", d.Name, len(d.X), d.T*d.N*d.F)
	}
	if d.Adj == nil || d.Adj.Rows != d.N || d.Adj.Cols != d.N {
		return fmt.Errorf("datasets: %s adjacency shape mismatch", d.Name)
	}
	if d.History <= 0 || d.Horizon <= 0 {
		return fmt.Errorf("datasets: %s window P=%d Q=%d must be positive", d.Name, d.History, d.Horizon)
	}
	if d.NumWindows() < 4 {
		return fmt.Errorf("datasets: %s yields only %d windows", d.Name, d.NumWindows())
	}
	// Valid values are -1 (predict all features) and 0..F-1 (predict one).
	// Values below -1 must be rejected here: ObservedMask treats any
	// negative value as -1, so without this check a typoed -5 silently
	// became the predict-everything task.
	if d.PredictFeature >= d.F || d.PredictFeature < -1 {
		return fmt.Errorf("datasets: %s PredictFeature %d out of range [-1, %d)", d.Name, d.PredictFeature, d.F)
	}
	if d.TrainFrac <= 0 || d.TrainFrac >= 1 {
		return fmt.Errorf("datasets: %s TrainFrac %g out of (0,1)", d.Name, d.TrainFrac)
	}
	// Non-finite values must stop here: one NaN poisons every ridge moment
	// it touches, and the fit then silently degenerates instead of failing.
	for k, v := range d.X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t, n, f := k/(d.N*d.F), k/d.F%d.N, k%d.F
			return fmt.Errorf("datasets: %s value %g at t=%d node=%d feature=%d is not finite", d.Name, v, t, n, f)
		}
	}
	for k, v := range d.Adj.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("datasets: %s adjacency weight %g at (%d,%d) is not finite", d.Name, v, k/d.N, k%d.N)
		}
	}
	return nil
}

// normalize rescales every feature channel to [-0.8, +0.8] using the
// feature's min/max over the full series. (Statistics from the training
// portion alone would be more orthodox, but the generators produce
// stationary ranges and the rails require a hard bound.)
func (d *Dataset) normalize() {
	for f := 0; f < d.F; f++ {
		lo, hi := d.At(0, 0, f), d.At(0, 0, f)
		for t := 0; t < d.T; t++ {
			for n := 0; n < d.N; n++ {
				v := d.At(t, n, f)
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
		span := hi - lo
		if span == 0 {
			span = 1
		}
		for t := 0; t < d.T; t++ {
			for n := 0; n < d.N; n++ {
				v := d.At(t, n, f)
				d.set(t, n, f, -0.8+1.6*(v-lo)/span)
			}
		}
	}
}
