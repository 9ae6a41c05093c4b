package mat

import "fmt"

// Couplings is an ordered list of square coupling matrices of one
// dimension whose sum is the J a clamped system anneals: [J] for the
// single-PE DSPU, [intra, slice 0, slice 1, ...] for the scalable mesh.
// The inference engine splits either backend's list against a clamp mask
// (Split), unfolds it for the naive reference (Unfold) and reduces it to
// energies and an effective J here, so the folding rules live in one
// place.
type Couplings struct {
	Mats []*CSR

	// noStatic is Unfold's Static: one empty n x n matrix per entry of
	// Mats, built by NewCouplings and shared by every unfolded plan.
	noStatic []*CSR
}

// NewCouplings wraps mats, which must be non-empty, square and of one
// dimension.
func NewCouplings(mats ...*CSR) *Couplings {
	if len(mats) == 0 {
		panic("mat: NewCouplings needs at least one matrix")
	}
	n := mats[0].Rows
	for _, s := range mats {
		if s.Rows != n || s.Cols != n {
			panic(fmt.Sprintf("mat: NewCouplings wants %dx%d matrices, got %dx%d", n, n, s.Rows, s.Cols))
		}
	}
	empty := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	c := &Couplings{Mats: mats, noStatic: make([]*CSR, len(mats))}
	for k := range c.noStatic {
		c.noStatic[k] = empty
	}
	return c
}

// Dim is the dimension every matrix shares.
func (c *Couplings) Dim() int { return c.Mats[0].Rows }

// ClampSplit is a clamp plan: every matrix of a Couplings split against
// one clamp mask by SplitRowPlan (Static[k] and Dyn[k] split Mats[k]), plus
// the ascending free and clamped index lists the anneal loops walk instead
// of scanning the mask. It is immutable once built, so concurrent
// inferences share it.
type ClampSplit struct {
	Free, Clamped []int
	Static, Dyn   []*CSR
}

// Split builds the clamp plan of one mask.
func (c *Couplings) Split(clamped []bool) *ClampSplit {
	sp := &ClampSplit{Static: make([]*CSR, len(c.Mats)), Dyn: make([]*CSR, len(c.Mats))}
	for k, s := range c.Mats {
		sp.Static[k], sp.Dyn[k] = SplitRowPlan(s, clamped)
	}
	sp.Free, sp.Clamped = appendFreeClamped(clamped, nil, nil)
	return sp
}

// Unfold builds into dst the clamp plan that folds nothing: every Static
// matrix is empty and Dyn is the coupling list itself, so a planned anneal
// loop under it re-accumulates every coupling row from zero, in stored
// order, every step. That is the naive reference, and comparing it with
// the Split plan isolates the one step that folding adds: hoisting the
// fully clamped rows into a bias. Free and Clamped are rebuilt into dst's
// own slices, so a dst reused across inferences allocates nothing once its
// slices have grown to the dimension. The plan shares c's matrices; treat
// it as read-only.
func (c *Couplings) Unfold(clamped []bool, dst *ClampSplit) {
	dst.Static, dst.Dyn = c.noStatic, c.Mats
	dst.Free, dst.Clamped = appendFreeClamped(clamped, dst.Free[:0], dst.Clamped[:0])
}

// appendFreeClamped appends a mask's unclamped indices to free and its
// clamped ones to cl, ascending.
func appendFreeClamped(clamped []bool, free, cl []int) ([]int, []int) {
	for i, c := range clamped {
		if c {
			cl = append(cl, i)
		} else {
			free = append(free, i)
		}
	}
	return free, cl
}

// EnergyAt evaluates the real-valued Hamiltonian of paper Eq. 4 at x,
//
//	E(x) = - 1/2 Σ_ij J_ij x_i x_j - 1/2 Σ_i h_i x_i²,
//
// with J the sum of the list, accumulated matrix by matrix in list order.
func (c *Couplings) EnergyAt(x, h []float64) float64 {
	var e float64
	for _, s := range c.Mats {
		for i := 0; i < s.Rows; i++ {
			for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
				e -= 0.5 * s.Val[p] * x[i] * x[s.ColIdx[p]]
			}
		}
	}
	for i, hi := range h {
		e -= 0.5 * hi * x[i] * x[i]
	}
	return e
}

// ClampedEnergyAt evaluates the conditional Hamiltonian of the free
// subsystem given the clamped nodes:
//
//	E_c(x) = - 1/2 Σ_{i,j free} J_ij x_i x_j
//	         -     Σ_{i free, j clamped} J_ij x_i x_j
//	         - 1/2 Σ_{i free} h_i x_i²
//
// This — not the raw Hamiltonian EnergyAt — is the Lyapunov function of
// clamped annealing: the dynamics dσ_i/dt = Σ_j J_ij σ_j + h_i σ_i on the
// free nodes are exactly -∇E_c whenever the free-free coupling block is
// symmetric (in particular whenever it is empty, as the closed-form trained
// systems are: couplings run from observed to predicted nodes only). The
// clamp-coupling term enters with full weight because the clamped node is a
// boundary condition, not a co-descending coordinate; EnergyAt's symmetric
// 1/2 accounting double-discounts it, which is why EnergyAt can rise
// monotonically while the system descends E_c to the regression
// equilibrium σ_i = -Σ J_ij σ_j / h_i (paper Eqs. 6-8).
func (c *Couplings) ClampedEnergyAt(x []float64, clamped []bool, h []float64) float64 {
	var e float64
	for _, s := range c.Mats {
		for i := 0; i < s.Rows; i++ {
			if clamped[i] {
				continue
			}
			xi := x[i]
			for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
				w := 0.5
				if clamped[s.ColIdx[p]] {
					w = 1
				}
				e -= w * s.Val[p] * xi * x[s.ColIdx[p]]
			}
		}
	}
	for i, hi := range h {
		if !clamped[i] {
			e -= 0.5 * hi * x[i] * x[i]
		}
	}
	return e
}

// EffectiveJ is the dense sum of the list: the coupling matrix the system
// realizes.
func (c *Couplings) EffectiveJ() *Dense {
	out := c.Mats[0].ToDense()
	for _, s := range c.Mats[1:] {
		out.AddM(s.ToDense())
	}
	return out
}

// SplitRowPlan classifies the rows of a square CSR against a clamp mask the
// way the clamp-plan compilers need them: rows whose stored entries all sit
// on clamped columns land in static (their coupling sum is a constant that
// can be folded once per inference), rows touching at least one free column
// land in dyn (they must be re-evaluated every anneal step). Clamped rows
// and empty rows land in neither. Both output matrices keep the full
// original row verbatim — same entries, same within-row order — so running
// a static row's fold or a dyn row's per-step sum accumulates in exactly
// the original order, which is what keeps the planned path bit-identical
// to the naive loop.
func SplitRowPlan(s *CSR, clamped []bool) (static, dyn *CSR) {
	if len(clamped) != s.Cols || s.Rows != s.Cols {
		panic(fmt.Sprintf("mat: SplitRowPlan wants a square matrix and a matching mask: %dx%d matrix, %d mask", s.Rows, s.Cols, len(clamped)))
	}
	static = &CSR{Rows: s.Rows, Cols: s.Cols, RowPtr: make([]int, s.Rows+1)}
	dyn = &CSR{Rows: s.Rows, Cols: s.Cols, RowPtr: make([]int, s.Rows+1)}
	for i := 0; i < s.Rows; i++ {
		if lo, hi := s.RowPtr[i], s.RowPtr[i+1]; !clamped[i] && lo < hi {
			dst := static
			for p := lo; p < hi; p++ {
				if !clamped[s.ColIdx[p]] {
					dst = dyn
					break
				}
			}
			dst.ColIdx = append(dst.ColIdx, s.ColIdx[lo:hi]...)
			dst.Val = append(dst.Val, s.Val[lo:hi]...)
		}
		static.RowPtr[i+1] = len(static.Val)
		dyn.RowPtr[i+1] = len(dyn.Val)
	}
	return static, dyn
}
