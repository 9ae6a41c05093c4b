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

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Symmetrize replaces m with (m + mᵀ)/2. m must be square.
func (m *Dense) Symmetrize() {
	if m.Rows != m.Cols {
		panic("mat: Symmetrize on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			avg := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(i, j, avg)
			m.Set(j, i, avg)
		}
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

// Mul computes c = a*b as a new matrix.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewDense(a.Rows, b.Cols)
	MulInto(c, a, b)
	return c
}

// MulInto computes c = a*b into an existing matrix c.
func MulInto(c, a, b *Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("mat: MulInto dimension mismatch")
	}
	c.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		crow := c.Data[i*c.Cols : (i+1)*c.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// Scale multiplies every element by s.
func (m *Dense) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
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

// Density returns NNZ(eps) divided by the total number of elements.
func (m *Dense) Density(eps float64) float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return float64(m.NNZ(eps)) / float64(len(m.Data))
}

// MaxAbs returns the largest absolute element value.
func (m *Dense) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
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

// Or sets b = b ∨ other element-wise.
func (b *Bool) Or(other *Bool) {
	if b.Rows != other.Rows || b.Cols != other.Cols {
		panic("mat: Or dimension mismatch")
	}
	for i, v := range other.Data {
		if v {
			b.Data[i] = true
		}
	}
}

// Clone returns a deep copy of b.
func (b *Bool) Clone() *Bool {
	c := NewBool(b.Rows, b.Cols)
	copy(c.Data, b.Data)
	return c
}
