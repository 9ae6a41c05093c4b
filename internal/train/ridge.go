package train

import (
	"fmt"
	"math"

	"dsgl/internal/mat"
)

// RidgeInit solves the graph-learning training objective in closed form for
// the observed-to-unknown couplings: for every unknown variable u it fits
// the ridge regression
//
//	σ_u ≈ Σ_i W[u][i] σ_obs[i],  W = (Xᵀ X + λI)⁻¹ Xᵀ Y
//
// over the training windows and installs the weights as couplings
// J[u][obs_i] = W[u][i] with h_u = -1, so the regression of Eq. 10
// reproduces the fit exactly. Unknown-to-unknown couplings start at zero;
// the subsequent gradient fine-tune is free to grow them where joint
// annealing helps.
//
// This is the same objective Fit optimizes — the closed form simply lands
// on the optimum directly for the clamped-input block, which stochastic
// training approaches slowly.
func RidgeInit(samples [][]float64, observed []bool, lambda float64) (*Params, error) {
	m, err := momentsOf(samples, observed)
	if err != nil {
		return nil, err
	}
	return m.Ridge(lambda)
}

// solveMulti solves A X = B for X by Gaussian elimination with partial
// pivoting. A and B are overwritten; X is returned in B's storage.
func solveMulti(a, b *mat.Dense) (*mat.Dense, error) {
	n := a.Rows
	if a.Cols != n || b.Rows != n {
		return nil, fmt.Errorf("train: solveMulti shape mismatch")
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a.At(r, col)) > math.Abs(a.At(piv, col)) {
				piv = r
			}
		}
		if a.At(piv, col) == 0 {
			return nil, fmt.Errorf("train: singular system at column %d", col)
		}
		if piv != col {
			swapRows(a, piv, col)
			swapRows(b, piv, col)
		}
		pv := a.At(col, col)
		acol, bcol := a.Row(col)[col:], b.Row(col)
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) / pv
			if f == 0 {
				continue
			}
			arow := a.Row(r)[col:]
			arow = arow[:len(acol)]
			for c, v := range acol {
				arow[c] -= f * v
			}
			brow := b.Row(r)
			brow = brow[:len(bcol)]
			for c, v := range bcol {
				brow[c] -= f * v
			}
		}
	}
	// Back substitution in place, bottom row first: row r of B becomes row
	// r of X once the rows below it are final. Every entry subtracts its
	// terms in ascending k before the division, as the entry-at-a-time
	// textbook loop does, but the sweep runs along rows.
	for r := n - 1; r >= 0; r-- {
		arow, xr := a.Row(r), b.Row(r)
		for k := r + 1; k < n; k++ {
			ark := arow[k]
			xk := b.Row(k)
			xk = xk[:len(xr)]
			for c, v := range xk {
				xr[c] -= ark * v
			}
		}
		for c := range xr {
			xr[c] /= arow[r]
		}
	}
	return b, nil
}

func swapRows(m *mat.Dense, a, b int) {
	if a == b {
		return
	}
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// MaskedRidge re-solves the training objective in closed form with J's
// support confined to a coupling mask — the "parameter fine-tune with
// patterns" step of Sec. IV.B. For every unknown variable u it fits a
// ridge regression over only the observed variables the interconnect mask
// allows it to couple with, using one shared Gram matrix over the observed
// block. Unknown-to-unknown couplings are left at zero: they would be
// fitted against ground-truth values that are unavailable at inference
// time (exposure bias), which measurably hurts the annealed solution.
func MaskedRidge(samples [][]float64, observed []bool, mask *mat.Bool, lambda float64) (*Params, error) {
	m, err := momentsOf(samples, observed)
	if err != nil {
		return nil, err
	}
	return m.MaskedRidge(mask, lambda)
}
