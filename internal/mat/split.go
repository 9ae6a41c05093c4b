package mat

import (
	"fmt"
	"sync"
)

// Couplings is an ordered list of square coupling matrices of one
// dimension whose sum is the J a clamped system anneals: [J] for the
// single-PE DSPU, [intra, slice 0, slice 1, ...] for the scalable mesh.
// Both backends split it against a clamp mask (Split), patch that split
// across a small mask change (ClampSplit.Patch) and reduce it to energies
// and an effective J here, so the folding rules live in one place.
type Couplings struct {
	Mats []*CSR

	// colRows[k] is Mats[k].ColRows(), built on the first Patch.
	colRowsOnce sync.Once
	colRows     [][][]int32
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
	return &Couplings{Mats: mats}
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
	sp.Free, sp.Clamped = freeClamped(clamped)
	return sp
}

// MaxPatchBits bounds the clamp-mask symmetric difference Patch accepts. A
// sliding observation window flips two bits per tick (one index leaves,
// one enters); beyond a handful of flips the affected rows approach the
// whole matrix and a fresh Split is both simpler and no slower.
const MaxPatchBits = 4

// Patch turns s, the split of c for oldClamped, into the split for
// newClamped, reclassifying only the rows the flipped bits touch
// (PatchRowPlan). The result equals c.Split(newClamped) bit for bit and s
// is never mutated: it may still sit in a plan cache under its own mask.
// Patch declines with nil when no bit or more than MaxPatchBits bits
// flipped, when a mask does not match c's dimension, or when s was split
// from a coupling list of another length; the caller then runs Split.
func (s *ClampSplit) Patch(c *Couplings, oldClamped, newClamped []bool) *ClampSplit {
	n := c.Dim()
	if len(s.Static) != len(c.Mats) || len(oldClamped) != n || len(newClamped) != n {
		return nil
	}
	changed := 0
	for i := range newClamped {
		if oldClamped[i] != newClamped[i] {
			changed++
		}
	}
	if changed == 0 || changed > MaxPatchBits {
		return nil
	}
	c.colRowsOnce.Do(func() {
		c.colRows = make([][][]int32, len(c.Mats))
		for k, m := range c.Mats {
			c.colRows[k] = m.ColRows()
		}
	})
	np := &ClampSplit{Static: make([]*CSR, len(c.Mats)), Dyn: make([]*CSR, len(c.Mats))}
	for k, m := range c.Mats {
		np.Static[k], np.Dyn[k] = PatchRowPlan(m, s.Static[k], s.Dyn[k], c.colRows[k], oldClamped, newClamped)
	}
	np.Free, np.Clamped = freeClamped(newClamped)
	return np
}

// freeClamped lists a mask's unclamped and clamped indices, ascending.
func freeClamped(clamped []bool) (free, cl []int) {
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
		classifyRow(s, i, clamped, static, dyn)
		static.RowPtr[i+1] = len(static.Val)
		dyn.RowPtr[i+1] = len(dyn.Val)
	}
	return static, dyn
}

// classifyRow appends row i of s to static or dyn (or neither) under the
// SplitRowPlan rules. RowPtr bookkeeping is the caller's.
func classifyRow(s *CSR, i int, clamped []bool, static, dyn *CSR) {
	lo, hi := s.RowPtr[i], s.RowPtr[i+1]
	if clamped[i] || lo == hi {
		return
	}
	free := 0
	for p := lo; p < hi; p++ {
		if !clamped[s.ColIdx[p]] {
			free++
		}
	}
	dst := dyn
	if free == 0 {
		dst = static
	}
	dst.ColIdx = append(dst.ColIdx, s.ColIdx[lo:hi]...)
	dst.Val = append(dst.Val, s.Val[lo:hi]...)
}

// ColRows returns, for every column, the ascending list of rows that store
// an entry in that column — the transpose adjacency PatchRowPlan uses to
// find the rows a clamp-mask delta touches without rescanning the matrix.
// The lists share one backing array; treat the result as read-only.
func (s *CSR) ColRows() [][]int32 {
	counts := make([]int32, s.Cols)
	for _, j := range s.ColIdx {
		counts[j]++
	}
	flat := make([]int32, 0, len(s.ColIdx))
	out := make([][]int32, s.Cols)
	pos := 0
	for j, c := range counts {
		out[j] = flat[pos : pos : pos+int(c)]
		pos += int(c)
	}
	for i := 0; i < s.Rows; i++ {
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			j := s.ColIdx[p]
			out[j] = append(out[j], int32(i))
		}
	}
	return out
}

// PatchRowPlan rebuilds SplitRowPlan(s, newClamped) from the split computed
// for oldClamped, reclassifying only the rows the mask delta can affect: the
// rows whose own clamp bit flipped plus every row with an entry in a flipped
// column (found through colRows, which must be s.ColRows()). All other rows
// are carried over from the previous split verbatim, so the result is
// structurally identical — RowPtr, ColIdx, and Val bit for bit — to a fresh
// SplitRowPlan of the new mask. The previous split is never mutated (it may
// still be resident in a plan cache under the old mask's key). When the
// masks are equal the previous matrices are returned as-is.
func PatchRowPlan(s *CSR, static, dyn *CSR, colRows [][]int32, oldClamped, newClamped []bool) (*CSR, *CSR) {
	if len(oldClamped) != s.Cols || len(newClamped) != s.Cols || s.Rows != s.Cols {
		panic(fmt.Sprintf("mat: PatchRowPlan wants a square matrix and matching masks: %dx%d matrix, %d/%d masks", s.Rows, s.Cols, len(oldClamped), len(newClamped)))
	}
	if len(colRows) != s.Cols {
		panic(fmt.Sprintf("mat: PatchRowPlan colRows has %d columns, want %d", len(colRows), s.Cols))
	}
	affected := make([]bool, s.Rows)
	changed := false
	for j := range newClamped {
		if oldClamped[j] == newClamped[j] {
			continue
		}
		changed = true
		affected[j] = true
		for _, r := range colRows[j] {
			affected[r] = true
		}
	}
	if !changed {
		return static, dyn
	}
	ns := &CSR{
		Rows: s.Rows, Cols: s.Cols,
		RowPtr: make([]int, s.Rows+1),
		ColIdx: make([]int, 0, len(static.Val)),
		Val:    make([]float64, 0, len(static.Val)),
	}
	nd := &CSR{
		Rows: s.Rows, Cols: s.Cols,
		RowPtr: make([]int, s.Rows+1),
		ColIdx: make([]int, 0, len(dyn.Val)),
		Val:    make([]float64, 0, len(dyn.Val)),
	}
	for i := 0; i < s.Rows; i++ {
		if affected[i] {
			classifyRow(s, i, newClamped, ns, nd)
		} else {
			if lo, hi := static.RowPtr[i], static.RowPtr[i+1]; hi > lo {
				ns.ColIdx = append(ns.ColIdx, static.ColIdx[lo:hi]...)
				ns.Val = append(ns.Val, static.Val[lo:hi]...)
			}
			if lo, hi := dyn.RowPtr[i], dyn.RowPtr[i+1]; hi > lo {
				nd.ColIdx = append(nd.ColIdx, dyn.ColIdx[lo:hi]...)
				nd.Val = append(nd.Val, dyn.Val[lo:hi]...)
			}
		}
		ns.RowPtr[i+1] = len(ns.Val)
		nd.RowPtr[i+1] = len(nd.Val)
	}
	return ns, nd
}
