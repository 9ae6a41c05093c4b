// Package ising implements the Ising model and the family of Ising-machine
// dynamics DS-GL takes as its architectural baseline (paper Sec. II): BRIM
// (bistable resistively-coupled), Metropolis (digital annealer comparator),
// and OIM (oscillator/Kuramoto family). BRIM is the binary comparator of
// the paper's cost baseline (Table I). Solver runs all three dynamics as
// an engine.OptBackend, so the combinatorial-optimization workloads
// (max-cut, QUBO) anneal through the same seeded multi-restart fan-out as
// the regression workloads.
package ising

import (
	"fmt"
	"math"

	"dsgl/internal/mat"
)

// Model is the Ising model of Eq. 1: H = -Σ_{i≠j} J_ij σ_i σ_j - Σ h_i σ_i
// over binary spins σ ∈ {-1, +1}. Internally the coupling is stored once,
// symmetrized and sparse: W = J + Jᵀ in CSR form, under which the
// Hamiltonian is
//
//	H = -½ Σ_ij W_ij σ_i σ_j - Σ h_i σ_i
//
// and one energy evaluation costs O(nnz) instead of the O(N²) a dense J
// forces — the difference between toy graphs and Gset-scale instances.
type Model struct {
	N int
	// W is the symmetrized coupling J + Jᵀ: square, zero-diagonal, exactly
	// symmetric CSR. All dynamics read it; none mutate it.
	W *mat.CSR
	H []float64
}

// NewModel builds an Ising model from a dense coupling matrix. j must be
// square with zero diagonal; it is symmetrized into W = J + Jᵀ and the
// dense form is not retained.
func NewModel(j *mat.Dense, h []float64) (*Model, error) {
	if j.Rows != j.Cols {
		return nil, fmt.Errorf("ising: J must be square, got %dx%d", j.Rows, j.Cols)
	}
	if len(h) != j.Rows {
		return nil, fmt.Errorf("ising: len(h)=%d, want %d", len(h), j.Rows)
	}
	n := j.Rows
	sym := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		if j.At(i, i) != 0 {
			return nil, fmt.Errorf("ising: non-zero diagonal at %d", i)
		}
		for k := 0; k < n; k++ {
			if v := j.At(i, k) + j.At(k, i); v != 0 {
				sym.Set(i, k, v)
			}
		}
	}
	return &Model{N: n, W: mat.FromDense(sym, 0), H: mat.CopyVec(h)}, nil
}

// NewModelCSR builds an Ising model directly from a symmetrized sparse
// coupling W = J + Jᵀ — the path instance generators take, which never
// materializes a dense matrix. w must be square, zero-diagonal, and exactly
// symmetric (W_ij == W_ji bit-for-bit); the matrix is used directly, not
// copied, and must not be mutated afterwards.
func NewModelCSR(w *mat.CSR, h []float64) (*Model, error) {
	if w.Rows != w.Cols {
		return nil, fmt.Errorf("ising: W must be square, got %dx%d", w.Rows, w.Cols)
	}
	if len(h) != w.Rows {
		return nil, fmt.Errorf("ising: len(h)=%d, want %d", len(h), w.Rows)
	}
	for i := 0; i < w.Rows; i++ {
		for p := w.RowPtr[i]; p < w.RowPtr[i+1]; p++ {
			j := w.ColIdx[p]
			if j == i {
				return nil, fmt.Errorf("ising: non-zero diagonal at %d", i)
			}
			if w.At(j, i) != w.Val[p] {
				return nil, fmt.Errorf("ising: W not symmetric at (%d,%d)", i, j)
			}
		}
	}
	return &Model{N: w.Rows, W: w, H: mat.CopyVec(h)}, nil
}

// Energy evaluates the Hamiltonian for spin vector s (entries ±1) in
// O(nnz): -½ Σ_i σ_i (W row_i · σ) - Σ h_i σ_i.
func (m *Model) Energy(s []int8) float64 {
	var e float64
	for i := 0; i < m.N; i++ {
		var row float64
		for p := m.W.RowPtr[i]; p < m.W.RowPtr[i+1]; p++ {
			row += m.W.Val[p] * float64(s[m.W.ColIdx[p]])
		}
		e -= (0.5*row + m.H[i]) * float64(s[i])
	}
	return e
}

// groundStateMaxN bounds the exhaustive search: 2^24 energy evaluations is
// already seconds of work, and every doubling doubles it.
const groundStateMaxN = 24

// GroundState exhaustively searches all 2^N spin configurations and returns
// the minimum-energy state. The search is exponential, so models beyond
// N=24 are rejected with an error rather than attempted.
func (m *Model) GroundState() ([]int8, float64, error) {
	if m.N > groundStateMaxN {
		return nil, 0, fmt.Errorf("ising: GroundState is exponential; N=%d exceeds the %d-spin limit", m.N, groundStateMaxN)
	}
	best := make([]int8, m.N)
	bestE := math.Inf(1)
	s := make([]int8, m.N)
	for bits := 0; bits < 1<<uint(m.N); bits++ {
		for i := 0; i < m.N; i++ {
			if bits&(1<<uint(i)) != 0 {
				s[i] = 1
			} else {
				s[i] = -1
			}
		}
		if e := m.Energy(s); e < bestE {
			bestE = e
			copy(best, s)
		}
	}
	return best, bestE, nil
}

// QuantizeInto maps voltages to ±1 spins by sign (ties resolve to +1):
// dst[i] = sign(x[i]). dst must have len(x).
func QuantizeInto(dst []int8, x []float64) {
	for i, v := range x {
		if v < 0 {
			dst[i] = -1
		} else {
			dst[i] = 1
		}
	}
}
