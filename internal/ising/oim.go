package ising

import (
	"math"

	"dsgl/internal/mat"
)

// phaseSystem is the oscillator-based Ising machine's phase flow (Wang &
// Roychowdhury 2019; the Kuramoto/XY-model family of the paper's
// related-work section). Spins are oscillator phases φ_i with Lyapunov
// function
//
//	H_XY = -½ Σ_{i≠j} W_ij cos(φ_i - φ_j) - K Σ cos(2 φ_i),  W = J + Jᵀ
//
// where the second term is sub-harmonic injection locking (SHIL) that
// binarizes phases toward {0, π}. The paper argues these machines do not
// extend naturally to real-valued quadratic objectives; the OIM dynamics
// exist to demonstrate exactly that contrast against the Real-Valued DSPU.
//
// The system integrates the gradient flow dφ/dt = -∂H_XY/∂φ over the
// sparse symmetrized coupling: one derivative costs O(nnz).
type phaseSystem struct {
	w     *mat.CSR
	shilK float64
}

// Derivative writes dφ/dt at phases phi into dst.
func (p *phaseSystem) Derivative(phi, dst []float64) {
	for i := 0; i < p.w.Rows; i++ {
		var drive float64
		for q := p.w.RowPtr[i]; q < p.w.RowPtr[i+1]; q++ {
			drive -= p.w.Val[q] * math.Sin(phi[i]-phi[p.w.ColIdx[q]])
		}
		drive -= 2 * p.shilK * math.Sin(2*phi[i])
		dst[i] = drive
	}
}

// PhaseQuantizeInto maps oscillator phases to Ising spins: +1 when the
// phase is within π/2 of 0 (mod 2π), −1 otherwise. dst must have len(phi).
func PhaseQuantizeInto(dst []int8, phi []float64) {
	for i, p := range phi {
		m := math.Mod(p, 2*math.Pi)
		if m < 0 {
			m += 2 * math.Pi
		}
		if m < math.Pi/2 || m > 3*math.Pi/2 {
			dst[i] = 1
		} else {
			dst[i] = -1
		}
	}
}

// XYEnergy evaluates the oscillator Lyapunov function at phases phi (with
// the SHIL term at full strength k).
func XYEnergy(m *Model, phi []float64, k float64) float64 {
	var e float64
	for i := 0; i < m.N; i++ {
		for q := m.W.RowPtr[i]; q < m.W.RowPtr[i+1]; q++ {
			// Each undirected pair appears twice in the symmetric CSR; the
			// ½ folds the double count back to the i<j sum.
			e -= 0.5 * m.W.Val[q] * math.Cos(phi[i]-phi[m.W.ColIdx[q]])
		}
		e -= k * math.Cos(2*phi[i])
	}
	return e
}
