package train

import (
	"fmt"

	"dsgl/internal/mat"
	"dsgl/internal/pool"
)

// Moments holds the sufficient statistics of every closed-form ridge fit
// in this package: the Gram matrix G = XᵀX over the observed variables
// and the cross moments B = XᵀY from the observed to the unknown
// variables, each entry one sum over the samples in the order they were
// added. Only G's upper triangle is accumulated; the solvers read it
// symmetrically.
//
// One Moments serves a whole training run. Accumulating a prefix of the
// samples and later the rest gives exactly the sums one pass over all of
// them gives, so the moments can be solved (the lambda grid on the fit
// prefix) and then keep accumulating (the validation suffix) before the
// dense fit and the masked refit read them. The solvers never modify the
// moments, so any number of them may run concurrently between Adds.
type Moments struct {
	n              int
	obsIdx, unkIdx []int
	obsPos         []int // variable index -> position in obsIdx, -1 if unknown
	g              *mat.Dense
	b              *mat.Dense
	count          int
}

// NewMoments returns empty moments for samples of len(observed) variables,
// split into inputs (observed true) and targets (observed false).
func NewMoments(observed []bool) (*Moments, error) {
	m := &Moments{n: len(observed), obsPos: make([]int, len(observed))}
	for i, o := range observed {
		if o {
			m.obsPos[i] = len(m.obsIdx)
			m.obsIdx = append(m.obsIdx, i)
		} else {
			m.obsPos[i] = -1
			m.unkIdx = append(m.unkIdx, i)
		}
	}
	if len(m.obsIdx) == 0 || len(m.unkIdx) == 0 {
		return nil, fmt.Errorf("train: need both observed and unknown variables (%d/%d)", len(m.obsIdx), len(m.unkIdx))
	}
	m.g = mat.NewDense(len(m.obsIdx), len(m.obsIdx))
	m.b = mat.NewDense(len(m.obsIdx), len(m.unkIdx))
	return m, nil
}

// momentsOf accumulates samples on one worker: the shared prologue of the
// per-fit entry points (RidgeInit, MaskedRidge, BlockRidge,
// BlockMaskedRidge).
func momentsOf(samples [][]float64, observed []bool) (*Moments, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("train: no samples")
	}
	if len(observed) != len(samples[0]) {
		return nil, fmt.Errorf("train: observed mask has %d entries, want %d", len(observed), len(samples[0]))
	}
	m, err := NewMoments(observed)
	if err != nil {
		return nil, err
	}
	if err := m.Add(samples, 1); err != nil {
		return nil, err
	}
	return m, nil
}

// Add accumulates samples onto the moments, in order. The rows of G and B
// are split into up to workers contiguous blocks of equal work (row i
// costs no-i+nu multiply-adds per sample, G being a triangle), one
// goroutine each. Every entry is still one sum over the samples in order,
// so the result does not depend on workers.
func (m *Moments) Add(samples [][]float64, workers int) error {
	for _, smp := range samples {
		if len(smp) != m.n {
			return fmt.Errorf("train: ragged samples")
		}
	}
	bounds := m.rowBlocks(pool.Clamp(workers, len(m.obsIdx)))
	pool.Run(len(bounds)-1, len(bounds)-1, func(k int) {
		m.addRows(samples, bounds[k], bounds[k+1])
	})
	m.count += len(samples)
	return nil
}

// rowBlocks splits the rows of G and B into at most k contiguous blocks of
// about equal work and returns the block boundaries, from 0 to no.
func (m *Moments) rowBlocks(k int) []int {
	no, nu := len(m.obsIdx), len(m.unkIdx)
	total := 0
	for i := 0; i < no; i++ {
		total += no - i + nu
	}
	bounds := []int{0}
	done := 0
	for i := 0; i < no; i++ {
		done += no - i + nu
		if len(bounds) < k && done*k >= total*len(bounds) {
			bounds = append(bounds, i+1)
		}
	}
	if bounds[len(bounds)-1] < no {
		bounds = append(bounds, no)
	}
	return bounds
}

// addRows accumulates rows [lo, hi) of G and B over samples. Each sample's
// observed values from column lo on, and its unknown values, are first
// gathered into contiguous buffers private to this block.
func (m *Moments) addRows(samples [][]float64, lo, hi int) {
	obs := m.obsIdx[lo:]
	x := make([]float64, len(obs))
	y := make([]float64, len(m.unkIdx))
	for _, smp := range samples {
		for k, idx := range obs {
			x[k] = smp[idx]
		}
		for u, idx := range m.unkIdx {
			y[u] = smp[idx]
		}
		for i := lo; i < hi; i++ {
			xs := x[i-lo:]
			vi := xs[0]
			if vi == 0 {
				continue
			}
			grow := m.g.Row(i)[i:]
			grow = grow[:len(xs)]
			for j, v := range xs {
				grow[j] += vi * v
			}
			brow := m.b.Row(i)
			brow = brow[:len(y)]
			for u, v := range y {
				brow[u] += vi * v
			}
		}
	}
}

// gram reads G symmetrically from its accumulated upper triangle.
func (m *Moments) gram(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	return m.g.At(i, j)
}

// ready checks that the moments and lambda admit a ridge solve.
func (m *Moments) ready(lambda float64) error {
	if m.count == 0 {
		return fmt.Errorf("train: no samples")
	}
	if lambda <= 0 {
		return fmt.Errorf("train: ridge lambda must be positive, got %g", lambda)
	}
	return nil
}

// Weights solves the full ridge system (G + λI) W = B and returns W, with
// W[i][u] the weight of observed variable i (in observed order) in the
// prediction of unknown variable u (in unknown order).
func (m *Moments) Weights(lambda float64) (*mat.Dense, error) {
	if err := m.ready(lambda); err != nil {
		return nil, err
	}
	no := len(m.obsIdx)
	a := mat.NewDense(no, no)
	for i := 0; i < no; i++ {
		row := a.Row(i)
		for j := 0; j < i; j++ {
			row[j] = m.g.At(j, i)
		}
		copy(row[i:], m.g.Row(i)[i:])
		row[i] += lambda
	}
	return solveMulti(a, m.b.Clone())
}

// Predict writes into out, one entry per unknown variable in order, the
// prediction from smp under weights w from Weights: the sum over the
// observed variables, in ascending order, of weight times value. That is
// the sum Params.Regress forms over the J row Ridge installs, less its
// terms on J's structural zeros, which with finite samples never change
// a partial sum.
func (m *Moments) Predict(w *mat.Dense, smp, out []float64) {
	clear(out)
	for i, idx := range m.obsIdx {
		x := smp[idx]
		for u, wu := range w.Row(i) {
			out[u] += wu * x
		}
	}
}

// newParams returns a parameter set with J zero and every h at -1, the
// starting point every closed-form fit fills in.
func (m *Moments) newParams() *Params {
	h := make([]float64, m.n)
	for i := range h {
		h[i] = -1
	}
	return &Params{J: mat.NewDense(m.n, m.n), H: h}
}

// Ridge solves the full observed-to-unknown ridge fit and installs it as
// couplings J[u][obs_i] = W[i][u] with h = -1; see RidgeInit.
func (m *Moments) Ridge(lambda float64) (*Params, error) {
	w, err := m.Weights(lambda)
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

// MaskedRidge solves one ridge fit per unknown row over the observed
// columns the mask allows it; see the package-level MaskedRidge.
func (m *Moments) MaskedRidge(mask *mat.Bool, lambda float64) (*Params, error) {
	if mask == nil || mask.Rows != m.n || mask.Cols != m.n {
		return nil, fmt.Errorf("train: coupling mask missing or mis-shaped")
	}
	if err := m.ready(lambda); err != nil {
		return nil, err
	}
	p := m.newParams()
	for u, uIdx := range m.unkIdx {
		// Columns this row may couple with: masked AND observed.
		var cols []int
		for c := 0; c < m.n; c++ {
			if c != uIdx && mask.At(uIdx, c) && m.obsPos[c] >= 0 {
				cols = append(cols, m.obsPos[c])
			}
		}
		if len(cols) == 0 {
			continue // isolated row predicts 0 (the normalized mean)
		}
		s := len(cols)
		sub := mat.NewDense(s, s)
		rhs := mat.NewDense(s, 1)
		for a := 0; a < s; a++ {
			for c := 0; c < s; c++ {
				sub.Set(a, c, m.gram(cols[a], cols[c]))
			}
			sub.Add(a, a, lambda)
			rhs.Set(a, 0, m.b.At(cols[a], u))
		}
		wts, err := solveMulti(sub, rhs)
		if err != nil {
			return nil, fmt.Errorf("train: masked ridge row %d: %w", uIdx, err)
		}
		for a := 0; a < s; a++ {
			p.J.Set(uIdx, m.obsIdx[cols[a]], wts.At(a, 0))
		}
	}
	p.J.ZeroDiagonal()
	return p, nil
}
