// Package ising implements the Ising model and the family of Ising-machine
// dynamics DS-GL takes as its architectural baseline (paper Sec. II): BRIM
// (bistable resistively-coupled), Metropolis (digital annealer comparator),
// and OIM (oscillator/Kuramoto family). BRIM is the binary comparator of
// the paper's cost baseline (Table I). Solver runs all three dynamics as
// an engine.OptBackend, so the MaxCut workloads anneal through the same
// seeded multi-restart fan-out as the regression workloads.
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

// NewModelCSR builds an Ising model from a symmetrized sparse coupling
// W = J + Jᵀ — the path instance generators take, which never
// materializes a dense matrix. w must be square, zero-diagonal, exactly
// symmetric (W_ij == W_ji bit-for-bit) and finite, as must h, and each row's
// column indices must be in range and strictly increasing, as
// mat.Builder.Build leaves them. The matrix is used directly, not copied,
// and must not be mutated afterwards.
func NewModelCSR(w *mat.CSR, h []float64) (*Model, error) {
	if w.Rows != w.Cols {
		return nil, fmt.Errorf("ising: W must be square, got %dx%d", w.Rows, w.Cols)
	}
	if len(h) != w.Rows {
		return nil, fmt.Errorf("ising: len(h)=%d, want %d", len(h), w.Rows)
	}
	// Finiteness first: NaN never equals its mirror entry, so the symmetry
	// check below would misreport it. That check also leans on sorted,
	// unique, in-range columns.
	for i := 0; i < w.Rows; i++ {
		prev := -1
		for p := w.RowPtr[i]; p < w.RowPtr[i+1]; p++ {
			j := w.ColIdx[p]
			if !finite(w.Val[p]) {
				return nil, fmt.Errorf("ising: W[%d][%d] = %g is not finite", i, j, w.Val[p])
			}
			if j < 0 || j >= w.Cols {
				return nil, fmt.Errorf("ising: W row %d: column %d out of range [0, %d)", i, j, w.Cols)
			}
			if j <= prev {
				return nil, fmt.Errorf("ising: W row %d: column %d follows column %d; columns must increase strictly", i, j, prev)
			}
			prev = j
		}
	}
	if err := checkFiniteH(h); err != nil {
		return nil, err
	}
	if err := checkSymmetric(w); err != nil {
		return nil, err
	}
	return &Model{N: w.Rows, W: w, H: mat.CopyVec(h)}, nil
}

// checkSymmetric reports the first entry, in row-major order, that is on
// the diagonal or differs from its mirror, where a mirror W doesn't store
// reads as 0 (as mat.CSR.At reads it). Rows are walked in order with one
// cursor per row instead of a binary search per entry, so the check is
// linear in the stored entries. Row i's entry (i, j) above the diagonal
// moves next[j] past row j's columns below i, which can only be entries
// (j, c) whose row c < i stores no (c, j), to the mirror (j, i). Such an
// unmatched entry is an error unless it stores zero; bad[j] keeps the first
// non-zero one, so that row j reports it in its turn. Columns must be
// sorted and unique.
func checkSymmetric(w *mat.CSR) error {
	n := w.Rows
	cursors := make([]int, 2*n)
	next, bad := cursors[:n], cursors[n:]
	copy(next, w.RowPtr[:n])
	copy(bad, w.RowPtr[1:])
	for i := 0; i < n; i++ {
		for p := w.RowPtr[i]; p < w.RowPtr[i+1]; p++ {
			j := w.ColIdx[p]
			switch {
			case j == i:
				return fmt.Errorf("ising: non-zero diagonal at %d", i)
			case j > i:
				q, end := next[j], w.RowPtr[j+1]
				for ; q < end && w.ColIdx[q] < i; q++ {
					if w.Val[q] != 0 && bad[j] == end {
						bad[j] = q
					}
				}
				var mirror float64
				if q < end && w.ColIdx[q] == i {
					mirror = w.Val[q]
					q++
				}
				next[j] = q
				if mirror != w.Val[p] {
					return fmt.Errorf("ising: W not symmetric at (%d,%d)", i, j)
				}
			case p == bad[i] || p >= next[i] && w.Val[p] != 0:
				// j < i, and a non-zero entry no cursor matched: row j
				// stores no (j, i).
				return fmt.Errorf("ising: W not symmetric at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkFiniteH names the first non-finite field entry.
func checkFiniteH(h []float64) error {
	for i, v := range h {
		if !finite(v) {
			return fmt.Errorf("ising: h[%d] = %g is not finite", i, v)
		}
	}
	return nil
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
