// Package mat provides the dense and sparse linear-algebra kernels used by
// every other package in the DS-GL reproduction: the coupling matrices of
// dynamical systems, the adjacency matrices of graphs, and the weight
// matrices of the GNN baselines.
//
// The package is deliberately small: row-major dense matrices, CSR sparse
// matrices, and the handful of BLAS-like operations the rest of the system
// needs. Everything is float64.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewDense returns a zero-initialized Rows x Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewDenseFrom wraps data as a rows x cols matrix. The slice is used
// directly, not copied; len(data) must equal rows*cols.
func NewDenseFrom(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element to zero.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// ZeroDiagonal clears the diagonal of a square matrix. The Ising coupling
// matrix J requires diag(J) = 0 (Eq. 2 of the paper).
func (m *Dense) ZeroDiagonal() {
	if m.Rows != m.Cols {
		panic("mat: ZeroDiagonal on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] = 0
	}
}

// MulVec computes y = m*x. len(x) must equal m.Cols; the result has length
// m.Rows. If y is non-nil and has the right length it is reused.
func (m *Dense) MulVec(x, y []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch: %d cols vs %d vec", m.Cols, len(x)))
	}
	if y == nil || len(y) != m.Rows {
		y = make([]float64, m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// AddM adds other element-wise into m.
func (m *Dense) AddM(other *Dense) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("mat: AddM dimension mismatch")
	}
	for i, v := range other.Data {
		m.Data[i] += v
	}
}

// NNZ counts elements with |v| > eps.
func (m *Dense) NNZ(eps float64) int {
	n := 0
	for _, v := range m.Data {
		if math.Abs(v) > eps {
			n++
		}
	}
	return n
}

// Equal reports whether m and other have the same shape and all elements
// within tol of each other.
func (m *Dense) Equal(other *Dense, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range other.Data {
		if math.Abs(m.Data[i]-v) > tol {
			return false
		}
	}
	return true
}

// ApplyMask zeroes every element of m where mask is false. mask must have
// the same shape as m. This is how the fine-tuning step of the decomposition
// algorithm confines non-zeros to the allowed interconnect pattern.
func (m *Dense) ApplyMask(mask *Bool) {
	if m.Rows != mask.Rows || m.Cols != mask.Cols {
		panic("mat: ApplyMask dimension mismatch")
	}
	for i := range m.Data {
		if !mask.Data[i] {
			m.Data[i] = 0
		}
	}
}

// Bool is a row-major boolean matrix, used for coupling masks.
type Bool struct {
	Rows, Cols int
	Data       []bool
}

// NewBool returns an all-false rows x cols boolean matrix.
func NewBool(rows, cols int) *Bool {
	return &Bool{Rows: rows, Cols: cols, Data: make([]bool, rows*cols)}
}

// At returns the element at row i, column j.
func (b *Bool) At(i, j int) bool { return b.Data[i*b.Cols+j] }

// Set assigns the element at row i, column j.
func (b *Bool) Set(i, j int, v bool) { b.Data[i*b.Cols+j] = v }

// Count returns the number of true elements.
func (b *Bool) Count() int {
	n := 0
	for _, v := range b.Data {
		if v {
			n++
		}
	}
	return n
}
