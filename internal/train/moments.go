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

// addRows accumulates rows [lo, hi) of G and B over samples, four samples
// per pass over each row. Each sample's observed values from column lo on,
// and its unknown values, are first gathered into contiguous buffers
// private to this block. A sample whose value at row i is zero adds
// nothing to row i.
func (m *Moments) addRows(samples [][]float64, lo, hi int) {
	obs := m.obsIdx[lo:]
	var x, y [maxTerms][]float64
	for k := range x {
		x[k] = make([]float64, len(obs))
		y[k] = make([]float64, len(m.unkIdx))
	}
	for s := 0; s < len(samples); s += maxTerms {
		group := samples[s:min(s+maxTerms, len(samples))]
		for k, smp := range group {
			for j, idx := range obs {
				x[k][j] = smp[idx]
			}
			for u, idx := range m.unkIdx {
				y[k][u] = smp[idx]
			}
		}
		for i := lo; i < hi; i++ {
			g := rowTerms{dst: m.g.Row(i)[i:]}
			b := rowTerms{dst: m.b.Row(i)}
			for k := range group {
				xs := x[k][i-lo:]
				if vi := xs[0]; vi != 0 {
					g.add(vi, xs)
					b.add(vi, y[k])
				}
			}
			g.flush()
			b.flush()
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

// A Workspace holds the two matrices a Weights solve overwrites. Solves
// that take turns on one Workspace share its storage; the weights a solve
// returns live in it, valid until the next solve. The zero value is ready.
type Workspace struct {
	a, w *mat.Dense
}

// Weights solves the full ridge system (G + λI) W = B and returns W, with
// W[i][u] the weight of observed variable i (in observed order) in the
// prediction of unknown variable u (in unknown order). The solve runs in
// ws, or in fresh storage when ws is nil, and replays its elimination on
// up to workers column ranges of W at once.
func (m *Moments) Weights(lambda float64, workers int, ws *Workspace) (*mat.Dense, error) {
	if err := m.ready(lambda); err != nil {
		return nil, err
	}
	no := len(m.obsIdx)
	if ws == nil {
		ws = new(Workspace)
	}
	if ws.a == nil || ws.a.Rows != no || ws.w.Cols != m.b.Cols {
		ws.a, ws.w = mat.NewDense(no, no), mat.NewDense(no, m.b.Cols)
	}
	a := ws.a
	for i := 0; i < no; i++ {
		row := a.Row(i)
		for j := 0; j < i; j++ {
			row[j] = m.g.At(j, i)
		}
		copy(row[i:], m.g.Row(i)[i:])
		row[i] += lambda
	}
	copy(ws.w.Data, m.b.Data)
	return solveMulti(a, ws.w, workers)
}

// Predict writes into out[k], one entry per unknown variable in order, the
// prediction from smps[k] under weights w from Weights: the sum over the
// observed variables, in ascending order, of weight times value. That is
// the sum Params.Regress forms over the J row Ridge installs, less its
// terms on J's structural zeros, which with finite samples never change
// a partial sum. Four samples share each pass over W, and each sum is
// kept in a register, for two unknowns at a time.
func (m *Moments) Predict(w *mat.Dense, smps, out [][]float64) {
	nu := w.Cols
	for s := 0; s < len(smps); s += maxTerms {
		group := smps[s:min(s+maxTerms, len(smps))]
		var x [maxTerms][]float64
		for k := range x {
			x[k] = group[min(k, len(group)-1)] // spare lanes repeat a sample
		}
		o := out[s : s+len(group)]
		u := 0
		for ; u+1 < nu; u += 2 {
			var a0, a1, b0, b1, c0, c1, d0, d1 float64
			for i, idx := range m.obsIdx {
				wr := w.Data[i*nu+u : i*nu+u+2]
				w0, w1 := wr[0], wr[1]
				x0, x1, x2, x3 := x[0][idx], x[1][idx], x[2][idx], x[3][idx]
				a0 += w0 * x0
				a1 += w1 * x0
				b0 += w0 * x1
				b1 += w1 * x1
				c0 += w0 * x2
				c1 += w1 * x2
				d0 += w0 * x3
				d1 += w1 * x3
			}
			sums := [maxTerms][2]float64{{a0, a1}, {b0, b1}, {c0, c1}, {d0, d1}}
			for k := range o {
				o[k][u], o[k][u+1] = sums[k][0], sums[k][1]
			}
		}
		if u < nu {
			var a0, b0, c0, d0 float64
			for i, idx := range m.obsIdx {
				w0 := w.Data[i*nu+u]
				a0 += w0 * x[0][idx]
				b0 += w0 * x[1][idx]
				c0 += w0 * x[2][idx]
				d0 += w0 * x[3][idx]
			}
			sums := [maxTerms]float64{a0, b0, c0, d0}
			for k := range o {
				o[k][u] = sums[k]
			}
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
// couplings J[u][obs_i] = W[i][u] with h = -1; see RidgeInit. The solve
// replays its elimination on up to workers column ranges of W at once.
func (m *Moments) Ridge(lambda float64, workers int) (*Params, error) {
	w, err := m.Weights(lambda, workers, nil)
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
// columns the mask allows it; see the package-level MaskedRidge. The rows
// are independent and fan out over up to workers goroutines, each writing
// only its own row of J.
func (m *Moments) MaskedRidge(mask *mat.Bool, lambda float64, workers int) (*Params, error) {
	if mask == nil || mask.Rows != m.n || mask.Cols != m.n {
		return nil, fmt.Errorf("train: coupling mask missing or mis-shaped")
	}
	if err := m.ready(lambda); err != nil {
		return nil, err
	}
	p := m.newParams()
	err := eachRow(workers, len(m.unkIdx), func(sc *rowScratch, u int) error {
		uIdx := m.unkIdx[u]
		// Columns this row may couple with: masked AND observed.
		cols := sc.cols[:0]
		for c := 0; c < m.n; c++ {
			if c != uIdx && mask.At(uIdx, c) && m.obsPos[c] >= 0 {
				cols = append(cols, m.obsPos[c])
			}
		}
		sc.cols = cols
		if len(cols) == 0 {
			return nil // isolated row predicts 0 (the normalized mean)
		}
		s := len(cols)
		sub, rhs := sc.system(s)
		for a := 0; a < s; a++ {
			for c := 0; c < s; c++ {
				sub.Set(a, c, m.gram(cols[a], cols[c]))
			}
			sub.Add(a, a, lambda)
			rhs.Set(a, 0, m.b.At(cols[a], u))
		}
		wts, err := solveMulti(sub, rhs, 1)
		if err != nil {
			return fmt.Errorf("train: masked ridge row %d: %w", uIdx, err)
		}
		for a := 0; a < s; a++ {
			p.J.Set(uIdx, m.obsIdx[cols[a]], wts.At(a, 0))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.J.ZeroDiagonal()
	return p, nil
}

// rowScratch is one worker's storage for the per-row solves of the masked
// refits, grown to the largest row it has solved so far.
type rowScratch struct {
	cols, solvedCols []int
	solvedW          []float64
	a, b             []float64
}

// system returns an s×s matrix and an s×1 right-hand side on the scratch
// storage, with arbitrary contents.
func (sc *rowScratch) system(s int) (a, b *mat.Dense) {
	if cap(sc.a) < s*s {
		sc.a, sc.b = make([]float64, s*s), make([]float64, s)
	}
	return &mat.Dense{Rows: s, Cols: s, Data: sc.a[:s*s]}, &mat.Dense{Rows: s, Cols: 1, Data: sc.b[:s]}
}

// eachRow runs fn for rows 0..n-1 over up to workers goroutines, each with
// its own scratch, and returns the error of the lowest failing row, as a
// loop over the rows in order would.
func eachRow(workers, n int, fn func(sc *rowScratch, u int) error) error {
	workers = pool.Clamp(workers, n)
	scratch := make([]rowScratch, workers)
	return pool.RunWorkersErr(workers, n, func(worker, u int) error {
		return fn(&scratch[worker], u)
	})
}
