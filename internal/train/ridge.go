package train

import (
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
	return m.Ridge(nil, lambda, 1)
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
	return m.MaskedRidge(nil, mask, lambda, 1)
}
