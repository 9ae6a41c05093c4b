package mat

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// CSR is a compressed-sparse-row matrix. It is the storage format used for
// the sparsified coupling matrices after decomposition: the Scalable DSPU
// evaluates coupling currents by iterating CSR rows.
type CSR struct {
	Rows, Cols int
	RowPtr     []int     // len Rows+1
	ColIdx     []int     // len NNZ
	Val        []float64 // len NNZ
}

// NNZ returns the number of stored entries.
func (s *CSR) NNZ() int { return len(s.Val) }

// FromDense converts a dense matrix to CSR, dropping entries with
// |v| <= eps.
func FromDense(m *Dense, eps float64) *CSR {
	s := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if math.Abs(v) > eps {
				s.ColIdx = append(s.ColIdx, j)
				s.Val = append(s.Val, v)
			}
		}
		s.RowPtr[i+1] = len(s.Val)
	}
	return s
}

// ToDense expands s to a dense matrix.
func (s *CSR) ToDense() *Dense {
	m := NewDense(s.Rows, s.Cols)
	for i := 0; i < s.Rows; i++ {
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			m.Set(i, s.ColIdx[p], s.Val[p])
		}
	}
	return m
}

// At returns element (i, j), using binary search within the row.
func (s *CSR) At(i, j int) float64 {
	lo, hi := s.RowPtr[i], s.RowPtr[i+1]
	idx := sort.SearchInts(s.ColIdx[lo:hi], j) + lo
	if idx < hi && s.ColIdx[idx] == j {
		return s.Val[idx]
	}
	return 0
}

// MulVec computes y = s*x. If y is non-nil with the right length it is
// reused.
func (s *CSR) MulVec(x, y []float64) []float64 {
	if len(x) != s.Cols {
		panic(fmt.Sprintf("mat: CSR MulVec dimension mismatch: %d cols vs %d vec", s.Cols, len(x)))
	}
	if y == nil || len(y) != s.Rows {
		y = make([]float64, s.Rows)
	}
	for i := 0; i < s.Rows; i++ {
		var sum float64
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			sum += s.Val[p] * x[s.ColIdx[p]]
		}
		y[i] = sum
	}
	return y
}

// RowNNZ returns the number of stored entries in row i.
func (s *CSR) RowNNZ(i int) int { return s.RowPtr[i+1] - s.RowPtr[i] }

// MulVecAdd computes the fused y = add + s*x: each output element starts
// from add[i] and accumulates the row's stored entries in order. Because the
// accumulation literally begins at add[i] (no extra +0 when a row is empty),
// composing a precomputed partial sum with the remaining entries is
// bit-identical to summing the full row from zero — the property the
// clamp-plan compiler relies on when it folds constant clamp currents into a
// per-row bias. y is reused when it has the right length and may alias add;
// it must not alias x.
func (s *CSR) MulVecAdd(x, add, y []float64) []float64 {
	if len(x) != s.Cols {
		panic(fmt.Sprintf("mat: CSR MulVecAdd dimension mismatch: %d cols vs %d vec", s.Cols, len(x)))
	}
	if len(add) != s.Rows {
		panic(fmt.Sprintf("mat: CSR MulVecAdd bias mismatch: %d rows vs %d bias", s.Rows, len(add)))
	}
	if y == nil || len(y) != s.Rows {
		y = make([]float64, s.Rows)
	}
	for i := 0; i < s.Rows; i++ {
		sum := add[i]
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			sum += s.Val[p] * x[s.ColIdx[p]]
		}
		y[i] = sum
	}
	return y
}

// SplitCols partitions s by a column mask into two matrices of the same
// shape: free holds the entries whose column is NOT marked, clamped holds
// the entries whose column IS marked. Row structure and the within-row entry
// order are both preserved, so for every row the concatenation of the two
// parts' entries (in column order) is exactly the original row, and
// free + clamped == s element-wise.
//
// The clamp-plan compiler uses the split to fold constant coupling currents:
// during clamped inference the marked (observed) columns' voltages never
// change, so clamped*x is a constant vector computable once per inference,
// and only the free part needs re-evaluation inside the anneal loop. A row
// whose free part is empty is entirely constant — its clamped part IS the
// original row, so the folded sum carries the original accumulation order
// bit for bit.
func (s *CSR) SplitCols(mask []bool) (free, clamped *CSR) {
	if len(mask) != s.Cols {
		panic(fmt.Sprintf("mat: CSR SplitCols mask has %d entries, want %d cols", len(mask), s.Cols))
	}
	free = &CSR{Rows: s.Rows, Cols: s.Cols, RowPtr: make([]int, s.Rows+1)}
	clamped = &CSR{Rows: s.Rows, Cols: s.Cols, RowPtr: make([]int, s.Rows+1)}
	for i := 0; i < s.Rows; i++ {
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			j := s.ColIdx[p]
			if mask[j] {
				clamped.ColIdx = append(clamped.ColIdx, j)
				clamped.Val = append(clamped.Val, s.Val[p])
			} else {
				free.ColIdx = append(free.ColIdx, j)
				free.Val = append(free.Val, s.Val[p])
			}
		}
		free.RowPtr[i+1] = len(free.Val)
		clamped.RowPtr[i+1] = len(clamped.Val)
	}
	return free, clamped
}

// Builder accumulates (i, j, v) triplets and produces a CSR matrix.
// Duplicate entries for the same (i, j) are summed in Add order.
type Builder struct {
	rows, cols int
	trips      []triplet
}

// triplet is one accumulated Add.
type triplet struct {
	i, j int
	v    float64
}

// NewBuilder returns a Builder for a rows x cols matrix.
func NewBuilder(rows, cols int) *Builder {
	return &Builder{rows: rows, cols: cols}
}

// Grow reserves room for k more Adds, so that many append without
// reallocating.
func (b *Builder) Grow(k int) { b.trips = slices.Grow(b.trips, k) }

// Add accumulates v at (i, j).
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("mat: Builder.Add out of range (%d,%d) in %dx%d", i, j, b.rows, b.cols))
	}
	b.trips = append(b.trips, triplet{i, j, v})
}

// Build produces the CSR matrix. A stable counting sort by row copies the
// triplets once, each row's run is then stably ordered by column, so
// duplicates stay in Add order, and each run of duplicates sums from +0 in
// that order. That is O(NNZ + rows) plus the column sorts, which cost
// O(d) for a row of d entries added in column order and O(d log² d) at
// worst. Entries that summed to exactly zero are still stored; callers
// that care should prune with eps beforehand. Build does not consume the
// triplets, so it may be called again after further Adds.
func (b *Builder) Build() *CSR {
	s := &CSR{Rows: b.rows, Cols: b.cols, RowPtr: make([]int, b.rows+1)}
	// RowPtr[i] counts row i's triplets into the slot after it, holds the
	// row's start once summed, and its end once the triplets are placed.
	for k := range b.trips {
		s.RowPtr[b.trips[k].i+1]++
	}
	for i := 1; i < b.rows; i++ {
		s.RowPtr[i] += s.RowPtr[i-1]
	}
	sorted := make([]triplet, len(b.trips))
	for _, t := range b.trips {
		sorted[s.RowPtr[t.i]] = t
		s.RowPtr[t.i]++
	}
	s.ColIdx = make([]int, 0, len(sorted))
	s.Val = make([]float64, 0, len(sorted))
	lo := 0
	for i := 0; i < b.rows; i++ {
		run := sorted[lo:s.RowPtr[i]]
		lo = s.RowPtr[i]
		s.RowPtr[i] = len(s.Val)
		slices.SortStableFunc(run, func(a, b triplet) int { return cmp.Compare(a.j, b.j) })
		for k, t := range run {
			if k > 0 && t.j == run[k-1].j {
				s.Val[len(s.Val)-1] += t.v
				continue
			}
			s.ColIdx = append(s.ColIdx, t.j)
			s.Val = append(s.Val, 0+t.v)
		}
	}
	s.RowPtr[b.rows] = len(s.Val)
	return s
}
