// Package tensor is a compact reverse-mode automatic-differentiation engine
// over 2-D float64 matrices. It exists to train the GNN baselines (GWN,
// MTGNN, DDGCRN) that DS-GL is compared against; the engine supports the
// operations those models need — matmul, broadcast add, element-wise
// arithmetic and activations, column concat/slice — with gradients, plus an
// Adam optimizer.
//
// Computation builds an implicit tape: each Tensor records its parents and
// a backward closure. Backward() topologically sorts the tape and
// accumulates gradients into every tensor with RequiresGrad set.
package tensor

import (
	"fmt"
	"math"

	"dsgl/internal/rng"
)

// Tensor is a node in the autodiff graph holding a Rows x Cols matrix.
type Tensor struct {
	Rows, Cols int
	Data       []float64
	Grad       []float64 // allocated lazily when gradients flow
	requires   bool
	parents    []*Tensor
	backward   func()
}

// New returns a zero tensor of the given shape that does not require
// gradients.
func New(rows, cols int) *Tensor {
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromData wraps data (used directly, not copied) as a tensor.
func FromData(rows, cols int, data []float64) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// Param returns a gradient-tracked tensor initialized with Glorot-uniform
// values, for use as a trainable parameter.
func Param(rows, cols int, r *rng.RNG) *Tensor {
	t := New(rows, cols)
	limit := math.Sqrt(6.0 / float64(rows+cols))
	r.FillUniform(t.Data, -limit, limit)
	t.requires = true
	return t
}

// ZeroParam returns a gradient-tracked zero tensor (for biases).
func ZeroParam(rows, cols int) *Tensor {
	t := New(rows, cols)
	t.requires = true
	return t
}

// RequiresGrad reports whether gradients accumulate into t.
func (t *Tensor) RequiresGrad() bool { return t.requires }

// At returns element (i, j).
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.Cols+j] }

// Set assigns element (i, j).
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.Cols+j] = v }

// ensureGrad allocates the gradient buffer.
func (t *Tensor) ensureGrad() {
	if t.Grad == nil {
		t.Grad = make([]float64, len(t.Data))
	}
}

// ZeroGrad clears the gradient buffer (if any).
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// needsTape reports whether an op over the given inputs must record
// backward information.
func needsTape(ins ...*Tensor) bool {
	for _, in := range ins {
		if in.requires || in.backward != nil || len(in.parents) > 0 {
			return true
		}
	}
	return false
}

// result builds an op output tensor wired to its parents.
func result(rows, cols int, parents []*Tensor, bw func()) *Tensor {
	t := New(rows, cols)
	if bw != nil {
		t.parents = parents
		t.backward = bw
	}
	return t
}

// Backward runs reverse-mode differentiation from t, which must be a
// scalar (1x1). Gradients accumulate into every reachable tensor.
func (t *Tensor) Backward() {
	if t.Rows != 1 || t.Cols != 1 {
		panic("tensor: Backward requires a scalar loss")
	}
	order := topoSort(t)
	for _, n := range order {
		n.ensureGrad()
	}
	t.Grad[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		if order[i].backward != nil {
			order[i].backward()
		}
	}
}

// topoSort returns the tape in topological order (parents before children).
func topoSort(root *Tensor) []*Tensor {
	var order []*Tensor
	seen := make(map[*Tensor]bool)
	var visit func(*Tensor)
	visit = func(n *Tensor) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, p := range n.parents {
			visit(p)
		}
		order = append(order, n)
	}
	visit(root)
	return order
}

// MatMul returns a @ b.
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var out *Tensor
	bw := func() {
		// dA += dOut @ Bᵀ ; dB += Aᵀ @ dOut
		if a.requires || a.backward != nil || a.parents != nil {
			a.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				for k := 0; k < a.Cols; k++ {
					var s float64
					for j := 0; j < b.Cols; j++ {
						s += out.Grad[i*out.Cols+j] * b.Data[k*b.Cols+j]
					}
					a.Grad[i*a.Cols+k] += s
				}
			}
		}
		if b.requires || b.backward != nil || b.parents != nil {
			b.ensureGrad()
			for k := 0; k < b.Rows; k++ {
				for j := 0; j < b.Cols; j++ {
					var s float64
					for i := 0; i < a.Rows; i++ {
						s += a.Data[i*a.Cols+k] * out.Grad[i*out.Cols+j]
					}
					b.Grad[k*b.Cols+j] += s
				}
			}
		}
	}
	if !needsTape(a, b) {
		bw = nil
	}
	out = result(a.Rows, b.Cols, []*Tensor{a, b}, bw)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// Add returns a + b element-wise. b may also be 1 x a.Cols (a row vector
// broadcast over rows, the bias case).
func Add(a, b *Tensor) *Tensor {
	broadcast := b.Rows == 1 && a.Rows != 1 && b.Cols == a.Cols
	if !broadcast && (a.Rows != b.Rows || a.Cols != b.Cols) {
		panic(fmt.Sprintf("tensor: Add %dx%d + %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var out *Tensor
	bw := func() {
		if a.requires || a.backward != nil || a.parents != nil {
			a.ensureGrad()
			for i := range a.Grad {
				a.Grad[i] += out.Grad[i]
			}
		}
		if b.requires || b.backward != nil || b.parents != nil {
			b.ensureGrad()
			if broadcast {
				for i := 0; i < a.Rows; i++ {
					for j := 0; j < a.Cols; j++ {
						b.Grad[j] += out.Grad[i*a.Cols+j]
					}
				}
			} else {
				for i := range b.Grad {
					b.Grad[i] += out.Grad[i]
				}
			}
		}
	}
	if !needsTape(a, b) {
		bw = nil
	}
	out = result(a.Rows, a.Cols, []*Tensor{a, b}, bw)
	if broadcast {
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				out.Data[i*a.Cols+j] = a.Data[i*a.Cols+j] + b.Data[j]
			}
		}
	} else {
		for i := range out.Data {
			out.Data[i] = a.Data[i] + b.Data[i]
		}
	}
	return out
}

// Sub returns a - b (same shapes only).
func Sub(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: Sub shape mismatch")
	}
	var out *Tensor
	bw := func() {
		if a.requires || a.backward != nil || a.parents != nil {
			a.ensureGrad()
			for i := range a.Grad {
				a.Grad[i] += out.Grad[i]
			}
		}
		if b.requires || b.backward != nil || b.parents != nil {
			b.ensureGrad()
			for i := range b.Grad {
				b.Grad[i] -= out.Grad[i]
			}
		}
	}
	if !needsTape(a, b) {
		bw = nil
	}
	out = result(a.Rows, a.Cols, []*Tensor{a, b}, bw)
	for i := range out.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Mul returns the element-wise (Hadamard) product.
func Mul(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: Mul shape mismatch")
	}
	var out *Tensor
	bw := func() {
		if a.requires || a.backward != nil || a.parents != nil {
			a.ensureGrad()
			for i := range a.Grad {
				a.Grad[i] += out.Grad[i] * b.Data[i]
			}
		}
		if b.requires || b.backward != nil || b.parents != nil {
			b.ensureGrad()
			for i := range b.Grad {
				b.Grad[i] += out.Grad[i] * a.Data[i]
			}
		}
	}
	if !needsTape(a, b) {
		bw = nil
	}
	out = result(a.Rows, a.Cols, []*Tensor{a, b}, bw)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// Scale returns s * a.
func Scale(a *Tensor, s float64) *Tensor {
	var out *Tensor
	bw := func() {
		if a.requires || a.backward != nil || a.parents != nil {
			a.ensureGrad()
			for i := range a.Grad {
				a.Grad[i] += s * out.Grad[i]
			}
		}
	}
	if !needsTape(a) {
		bw = nil
	}
	out = result(a.Rows, a.Cols, []*Tensor{a}, bw)
	for i := range out.Data {
		out.Data[i] = s * a.Data[i]
	}
	return out
}

// unary applies f with derivative df(y = f(x), x).
func unary(a *Tensor, f func(float64) float64, df func(y, x float64) float64) *Tensor {
	var out *Tensor
	bw := func() {
		if a.requires || a.backward != nil || a.parents != nil {
			a.ensureGrad()
			for i := range a.Grad {
				a.Grad[i] += out.Grad[i] * df(out.Data[i], a.Data[i])
			}
		}
	}
	if !needsTape(a) {
		bw = nil
	}
	out = result(a.Rows, a.Cols, []*Tensor{a}, bw)
	for i, v := range a.Data {
		out.Data[i] = f(v)
	}
	return out
}

// Tanh returns tanh(a) element-wise.
func Tanh(a *Tensor) *Tensor {
	return unary(a, math.Tanh, func(y, _ float64) float64 { return 1 - y*y })
}

// Sigmoid returns 1/(1+e^-a) element-wise.
func Sigmoid(a *Tensor) *Tensor {
	return unary(a,
		func(x float64) float64 { return 1 / (1 + math.Exp(-x)) },
		func(y, _ float64) float64 { return y * (1 - y) })
}

// ReLU returns max(0, a) element-wise.
func ReLU(a *Tensor) *Tensor {
	return unary(a,
		func(x float64) float64 {
			if x > 0 {
				return x
			}
			return 0
		},
		func(_, x float64) float64 {
			if x > 0 {
				return 1
			}
			return 0
		})
}

// ConcatCols concatenates tensors with equal row counts along columns.
func ConcatCols(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatCols of nothing")
	}
	rows := ts[0].Rows
	total := 0
	for _, t := range ts {
		if t.Rows != rows {
			panic("tensor: ConcatCols row mismatch")
		}
		total += t.Cols
	}
	var out *Tensor
	bw := func() {
		off := 0
		for _, t := range ts {
			if t.requires || t.backward != nil || t.parents != nil {
				t.ensureGrad()
				for i := 0; i < rows; i++ {
					for j := 0; j < t.Cols; j++ {
						t.Grad[i*t.Cols+j] += out.Grad[i*total+off+j]
					}
				}
			}
			off += t.Cols
		}
	}
	if !needsTape(ts...) {
		bw = nil
	}
	out = result(rows, total, ts, bw)
	off := 0
	for _, t := range ts {
		for i := 0; i < rows; i++ {
			copy(out.Data[i*total+off:i*total+off+t.Cols], t.Data[i*t.Cols:(i+1)*t.Cols])
		}
		off += t.Cols
	}
	return out
}

// SliceCols returns columns [from, to) of a.
func SliceCols(a *Tensor, from, to int) *Tensor {
	if from < 0 || to > a.Cols || from >= to {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of %d cols", from, to, a.Cols))
	}
	w := to - from
	var out *Tensor
	bw := func() {
		if a.requires || a.backward != nil || a.parents != nil {
			a.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				for j := 0; j < w; j++ {
					a.Grad[i*a.Cols+from+j] += out.Grad[i*w+j]
				}
			}
		}
	}
	if !needsTape(a) {
		bw = nil
	}
	out = result(a.Rows, w, []*Tensor{a}, bw)
	for i := 0; i < a.Rows; i++ {
		copy(out.Data[i*w:(i+1)*w], a.Data[i*a.Cols+from:i*a.Cols+to])
	}
	return out
}

// MSE returns the scalar mean-squared error between pred and target.
// target never receives gradients.
func MSE(pred, target *Tensor) *Tensor {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic("tensor: MSE shape mismatch")
	}
	n := float64(len(pred.Data))
	var out *Tensor
	bw := func() {
		if pred.requires || pred.backward != nil || pred.parents != nil {
			pred.ensureGrad()
			g := out.Grad[0]
			for i := range pred.Grad {
				pred.Grad[i] += g * 2 * (pred.Data[i] - target.Data[i]) / n
			}
		}
	}
	if !needsTape(pred) {
		bw = nil
	}
	out = result(1, 1, []*Tensor{pred}, bw)
	var s float64
	for i, v := range pred.Data {
		d := v - target.Data[i]
		s += d * d
	}
	out.Data[0] = s / n
	return out
}

// SumScalar returns the scalar sum of all elements.
func SumScalar(a *Tensor) *Tensor {
	var out *Tensor
	bw := func() {
		if a.requires || a.backward != nil || a.parents != nil {
			a.ensureGrad()
			g := out.Grad[0]
			for i := range a.Grad {
				a.Grad[i] += g
			}
		}
	}
	if !needsTape(a) {
		bw = nil
	}
	out = result(1, 1, []*Tensor{a}, bw)
	var s float64
	for _, v := range a.Data {
		s += v
	}
	out.Data[0] = s
	return out
}

// SoftmaxRows applies softmax along each row (used for learned adaptive
// adjacency in MTGNN/GWN).
func SoftmaxRows(a *Tensor) *Tensor {
	var out *Tensor
	bw := func() {
		if a.requires || a.backward != nil || a.parents != nil {
			a.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				// dx_j = y_j * (g_j - Σ_k g_k y_k)
				var dot float64
				for j := 0; j < a.Cols; j++ {
					dot += out.Grad[i*a.Cols+j] * out.Data[i*a.Cols+j]
				}
				for j := 0; j < a.Cols; j++ {
					y := out.Data[i*a.Cols+j]
					a.Grad[i*a.Cols+j] += y * (out.Grad[i*a.Cols+j] - dot)
				}
			}
		}
	}
	if !needsTape(a) {
		bw = nil
	}
	out = result(a.Rows, a.Cols, []*Tensor{a}, bw)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		max := row[0]
		for _, v := range row[1:] {
			if v > max {
				max = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - max)
			out.Data[i*a.Cols+j] = e
			sum += e
		}
		for j := range row {
			out.Data[i*a.Cols+j] /= sum
		}
	}
	return out
}

// Transpose returns aᵀ.
func Transpose(a *Tensor) *Tensor {
	var out *Tensor
	bw := func() {
		if a.requires || a.backward != nil || a.parents != nil {
			a.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				for j := 0; j < a.Cols; j++ {
					a.Grad[i*a.Cols+j] += out.Grad[j*a.Rows+i]
				}
			}
		}
	}
	if !needsTape(a) {
		bw = nil
	}
	out = result(a.Cols, a.Rows, []*Tensor{a}, bw)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[j*a.Rows+i] = a.Data[i*a.Cols+j]
		}
	}
	return out
}
