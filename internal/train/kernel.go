package train

import (
	"fmt"
	"math"

	"dsgl/internal/mat"
	"dsgl/internal/pool"
)

// The closed-form fits spend their time in three kernels: accumulating
// the moments, eliminating the ridge system and scoring the lambda grid.
// Each is blocked so that one pass over a destination row applies up to
// maxTerms updates to every entry. The updates still reach each entry one
// at a time, in the order the unblocked loop applied them in separate
// passes, so blocking changes no bit of any result (DESIGN.md §5).

// maxTerms is the number of scaled rows one kernel pass applies.
const maxTerms = 4

// rowTerms gathers the scaled rows bound for one destination row and
// applies them in the order they were added, maxTerms per pass: each
// entry d[j] becomes d[j] + c·x[j] (or d[j] − c·x[j] when sub is set),
// one term after the other.
type rowTerms struct {
	dst []float64
	sub bool
	n   int
	c   [maxTerms]float64
	x   [maxTerms][]float64
}

// add queues the term c·x, applying the queue when it is full.
func (t *rowTerms) add(c float64, x []float64) {
	t.c[t.n], t.x[t.n] = c, x
	t.n++
	if t.n == maxTerms {
		t.flush()
	}
}

// flush applies the queued terms to dst in order and empties the queue.
func (t *rowTerms) flush() {
	c, x, d := t.c[:t.n], t.x[:t.n], t.dst
	for len(c) > 0 {
		k := len(c)
		switch {
		case k == 4 && t.sub:
			sub4(d, c[0], c[1], c[2], c[3], x[0], x[1], x[2], x[3])
		case k == 4:
			add4(d, c[0], c[1], c[2], c[3], x[0], x[1], x[2], x[3])
		case k >= 2 && t.sub:
			k = 2
			sub2(d, c[0], c[1], x[0], x[1])
		case k >= 2:
			k = 2
			add2(d, c[0], c[1], x[0], x[1])
		case t.sub:
			sub1(d, c[0], x[0])
		default:
			add1(d, c[0], x[0])
		}
		c, x = c[k:], x[k:]
	}
	t.n = 0
}

func add4(d []float64, c0, c1, c2, c3 float64, x0, x1, x2, x3 []float64) {
	x0, x1, x2, x3 = x0[:len(d)], x1[:len(d)], x2[:len(d)], x3[:len(d)]
	for j, v := range d {
		v += c0 * x0[j]
		v += c1 * x1[j]
		v += c2 * x2[j]
		v += c3 * x3[j]
		d[j] = v
	}
}

func add2(d []float64, c0, c1 float64, x0, x1 []float64) {
	x0, x1 = x0[:len(d)], x1[:len(d)]
	for j, v := range d {
		v += c0 * x0[j]
		v += c1 * x1[j]
		d[j] = v
	}
}

func add1(d []float64, c0 float64, x0 []float64) {
	x0 = x0[:len(d)]
	for j, v := range x0 {
		d[j] += c0 * v
	}
}

func sub4(d []float64, c0, c1, c2, c3 float64, x0, x1, x2, x3 []float64) {
	x0, x1, x2, x3 = x0[:len(d)], x1[:len(d)], x2[:len(d)], x3[:len(d)]
	for j, v := range d {
		v -= c0 * x0[j]
		v -= c1 * x1[j]
		v -= c2 * x2[j]
		v -= c3 * x3[j]
		d[j] = v
	}
}

func sub2(d []float64, c0, c1 float64, x0, x1 []float64) {
	x0, x1 = x0[:len(d)], x1[:len(d)]
	for j, v := range d {
		v -= c0 * x0[j]
		v -= c1 * x1[j]
		d[j] = v
	}
}

func sub1(d []float64, c0 float64, x0 []float64) {
	x0 = x0[:len(d)]
	for j, v := range x0 {
		d[j] -= c0 * v
	}
}

// solveMulti solves A X = B for X by Gaussian elimination with partial
// pivoting. A and B are overwritten; X is returned in B's storage. The
// elimination of A runs once (factor); its row swaps and multipliers are
// then replayed on up to workers column ranges of B in parallel
// (substitute). Every entry of X sees the operations the textbook loop
// performs, in its order — eliminate A and B together, step by step,
// then back-substitute — so the result does not depend on workers.
func solveMulti(a, b *mat.Dense, workers int) (*mat.Dense, error) {
	n := a.Rows
	if a.Cols != n || b.Rows != n {
		return nil, fmt.Errorf("train: solveMulti shape mismatch")
	}
	piv, err := factor(a)
	if err != nil {
		return nil, err
	}
	if k := pool.Clamp(workers, b.Cols); k > 1 {
		pool.Run(k, k, func(s int) {
			substitute(a, piv, b, s*b.Cols/k, (s+1)*b.Cols/k)
		})
	} else {
		substitute(a, piv, b, 0, b.Cols)
	}
	return b, nil
}

// factor eliminates A in place and returns the row swapped into each
// pivot position. On return A's upper triangle holds U and its strict
// lower triangle the multipliers, each stored in the row it scales, so a
// row's multipliers move with it through every later swap.
//
// The elimination runs in panels of maxTerms pivot columns. Within a
// panel a column takes the panel's earlier steps just before its pivot is
// chosen, and a pivot row takes them on its whole right-hand part just
// after it is swapped in. Every row below the panel then takes all of the
// panel's steps in one pass. A step whose multiplier for a row is zero
// skips that row, as the textbook loop does.
func factor(a *mat.Dense) ([]int, error) {
	n := a.Rows
	piv := make([]int, n)
	for k0 := 0; k0 < n; k0 += maxTerms {
		k1 := min(k0+maxTerms, n)
		for col := k0; col < k1; col++ {
			for r := col; r < n; r++ {
				row := a.Row(r)
				v := row[col]
				for p, f := range row[k0:col] {
					if f != 0 {
						v -= f * a.At(k0+p, col)
					}
				}
				row[col] = v
			}
			p := col
			for r := col + 1; r < n; r++ {
				if math.Abs(a.At(r, col)) > math.Abs(a.At(p, col)) {
					p = r
				}
			}
			if a.At(p, col) == 0 {
				return nil, fmt.Errorf("train: singular system at column %d", col)
			}
			piv[col] = p
			swapRows(a, p, col)
			prow := a.Row(col)
			t := rowTerms{dst: prow[col+1:], sub: true}
			for q, f := range prow[k0:col] {
				if f != 0 {
					t.add(f, a.Row(k0 + q)[col+1:])
				}
			}
			t.flush()
			pv := prow[col]
			for r := col + 1; r < n; r++ {
				a.Row(r)[col] /= pv
			}
		}
		for r := k1; r < n; r++ {
			row := a.Row(r)
			t := rowTerms{dst: row[k1:], sub: true}
			for q, f := range row[k0:k1] {
				if f != 0 {
					t.add(f, a.Row(k0 + q)[k1:])
				}
			}
			t.flush()
		}
	}
	return piv, nil
}

// substitute replays factor's elimination on columns [lo, hi) of B, then
// back-substitutes them in place. The row swaps come first; each row then
// subtracts its multipliers' rows in step order (a zero multiplier skips
// its row), and back substitution subtracts the terms of every entry in
// ascending k before the division, as the textbook loop does.
func substitute(a *mat.Dense, piv []int, b *mat.Dense, lo, hi int) {
	n := a.Rows
	for col, p := range piv {
		if p != col {
			br, bp := b.Row(col)[lo:hi], b.Row(p)[lo:hi]
			for c := range br {
				br[c], bp[c] = bp[c], br[c]
			}
		}
	}
	for r := 1; r < n; r++ {
		t := rowTerms{dst: b.Row(r)[lo:hi], sub: true}
		for p, f := range a.Row(r)[:r] {
			if f != 0 {
				t.add(f, b.Row(p)[lo:hi])
			}
		}
		t.flush()
	}
	for r := n - 1; r >= 0; r-- {
		arow, xr := a.Row(r), b.Row(r)[lo:hi]
		t := rowTerms{dst: xr, sub: true}
		for k := r + 1; k < n; k++ {
			t.add(arow[k], b.Row(k)[lo:hi])
		}
		t.flush()
		for c := range xr {
			xr[c] /= arow[r]
		}
	}
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
