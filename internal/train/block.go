package train

import (
	"fmt"

	"dsgl/internal/mat"
)

// The closed-form ridge solves, class-blocked for heterogeneous
// decomposition (ROADMAP item 5, after Allier et al.'s decomp-gnn). Nodes
// carry an interaction-class label; each source class's column group gets
// its own ridge block, solved in canonical class order against the
// residual the previously solved classes left behind — one block
// Gauss–Seidel sweep over the full normal equations. Within a block only
// that class's Gram sub-matrix is inverted (cross-class correlations enter
// through the residual right-hand side, not the solve), which regularizes
// small blocks and decomposes the fit into per-class interaction models.
// Solving on residuals is what makes the blocks composable: K independent
// full-target fits would each explain the whole signal and their sum
// would over-count it roughly K-fold.
//
// A nil class vector is one class, the monolithic fit. With one class
// (nil or all zero) the block-diagonal Gram IS the full Gram and no
// residual is ever formed, so the solve is the full-system solve, and
// both class vectors give the same bits (verify invariant 10, enforced by
// TestBlockRidgeK1Identity and `dsgl verify`).

// checkClasses validates a per-variable class vector and returns the
// number of classes K = max label + 1; a nil vector is one class.
func checkClasses(classOf []int, n int) (int, error) {
	if classOf == nil {
		return 1, nil
	}
	if len(classOf) != n {
		return 0, fmt.Errorf("train: class vector has %d entries, want %d", len(classOf), n)
	}
	k := 0
	for i, c := range classOf {
		if c < 0 {
			return 0, fmt.Errorf("train: negative class %d at variable %d", c, i)
		}
		if c+1 > k {
			k = c + 1
		}
	}
	return k, nil
}

// Ridge solves the observed-to-unknown ridge fit and installs it as
// couplings J[u][obs_i] = W[i][u] with h = -1; see RidgeInit. The
// couplings are fitted per source class in canonical class order, each
// class's column group solved against the residual cross moments left by
// the classes before it. classOf assigns a class to every flattened window
// variable (callers expand per-node labels across steps and features); nil
// puts every variable in one class. Each class's solve replays its
// elimination on up to workers column ranges of its right-hand side at
// once.
func (m *Moments) Ridge(classOf []int, lambda float64, workers int) (*Params, error) {
	k, err := checkClasses(classOf, m.n)
	if err != nil {
		return nil, err
	}
	if err := m.ready(lambda); err != nil {
		return nil, err
	}
	no, nu := len(m.obsIdx), len(m.unkIdx)
	// The cross moments residualized class by class; the Gram blocks are
	// read from the moments, so at K=1 the one block is a verbatim copy of
	// the full system, and the moments themselves are never written.
	b := m.b
	if k > 1 {
		b = m.b.Clone()
	}
	p := m.newParams()
	for class := 0; class < k; class++ {
		// Observed columns belonging to this source class, ascending (obsIdx
		// is ascending, so the filtered positions are too).
		cols := make([]int, 0, no)
		for i, gi := range m.obsIdx {
			if k == 1 || classOf[gi] == class {
				cols = append(cols, i)
			}
		}
		if len(cols) == 0 {
			continue // no observed variables of this class
		}
		s := len(cols)
		sub := mat.NewDense(s, s)
		rhs := mat.NewDense(s, nu)
		for a := 0; a < s; a++ {
			for c := 0; c < s; c++ {
				sub.Set(a, c, m.gram(cols[a], cols[c]))
			}
			sub.Add(a, a, lambda)
			copy(rhs.Row(a), b.Row(cols[a]))
		}
		w, err := solveMulti(sub, rhs, workers)
		if err != nil {
			return nil, fmt.Errorf("train: ridge class %d: %w", class, err)
		}
		for u := 0; u < nu; u++ {
			for a := 0; a < s; a++ {
				p.J.Set(m.unkIdx[u], m.obsIdx[cols[a]], w.At(a, u))
			}
		}
		// Residualize the remaining cross moments: later classes fit what
		// this block left unexplained (b -= G[:,cols]·w). Skipped after the
		// last class, so never entered at K=1.
		if class+1 < k {
			for i := 0; i < no; i++ {
				brow := b.Row(i)
				for a := 0; a < s; a++ {
					gia := m.gram(i, cols[a])
					if gia == 0 {
						continue
					}
					wrow := w.Row(a)
					for u := 0; u < nu; u++ {
						brow[u] -= gia * wrow[u]
					}
				}
			}
		}
	}
	p.J.ZeroDiagonal()
	return p, nil
}

// MaskedRidge solves one ridge fit per unknown row over the observed
// columns the mask allows it; see the package-level MaskedRidge. Every
// row's columns are split by source class (classOf as for Ridge, nil for
// one class) and the class groups are solved in canonical order, each
// against the residual right-hand side left by the groups before it. The
// rows are independent and fan out over up to workers goroutines, each
// writing only its own row of J.
func (m *Moments) MaskedRidge(classOf []int, mask *mat.Bool, lambda float64, workers int) (*Params, error) {
	if mask == nil || mask.Rows != m.n || mask.Cols != m.n {
		return nil, fmt.Errorf("train: coupling mask missing or mis-shaped")
	}
	k, err := checkClasses(classOf, m.n)
	if err != nil {
		return nil, err
	}
	if err := m.ready(lambda); err != nil {
		return nil, err
	}
	p := m.newParams()
	err = eachRow(workers, len(m.unkIdx), func(sc *rowScratch, u int) error {
		uIdx := m.unkIdx[u]
		// Previously solved (column position, weight) pairs of this row —
		// later class blocks fit the residual these leave behind. Empty
		// for the first non-empty class, so at K=1 the one solve sees the
		// cross moments themselves.
		solvedCols, solvedW := sc.solvedCols[:0], sc.solvedW[:0]
		for class := 0; class < k; class++ {
			// Columns this row may couple with in this block: masked AND
			// observed AND of the source class, ascending.
			cols := sc.cols[:0]
			for c := 0; c < m.n; c++ {
				if c != uIdx && mask.At(uIdx, c) && m.obsPos[c] >= 0 && (k == 1 || classOf[c] == class) {
					cols = append(cols, m.obsPos[c])
				}
			}
			sc.cols = cols
			if len(cols) == 0 {
				continue // no allowed couplings into this class
			}
			s := len(cols)
			sub, rhs := sc.system(s)
			for a := 0; a < s; a++ {
				for c := 0; c < s; c++ {
					sub.Set(a, c, m.gram(cols[a], cols[c]))
				}
				sub.Add(a, a, lambda)
				r := m.b.At(cols[a], u)
				for q, qc := range solvedCols {
					r -= m.gram(cols[a], qc) * solvedW[q]
				}
				rhs.Set(a, 0, r)
			}
			wts, err := solveMulti(sub, rhs, 1)
			if err != nil {
				return fmt.Errorf("train: masked ridge row %d class %d: %w", uIdx, class, err)
			}
			for a := 0; a < s; a++ {
				p.J.Set(uIdx, m.obsIdx[cols[a]], wts.At(a, 0))
				if class+1 < k { // only later classes read them
					solvedCols = append(solvedCols, cols[a])
					solvedW = append(solvedW, wts.At(a, 0))
				}
			}
		}
		sc.solvedCols, sc.solvedW = solvedCols, solvedW
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.J.ZeroDiagonal()
	return p, nil
}
