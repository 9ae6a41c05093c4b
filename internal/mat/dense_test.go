package mat

import "testing"

func TestNewDenseShape(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape: %+v", m)
	}
}

func TestNewDenseNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dims")
		}
	}()
	NewDense(-1, 2)
}

func TestNewDenseFromLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong data length")
		}
	}()
	NewDenseFrom(2, 2, []float64{1, 2, 3})
}

func TestAtSetAdd(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 5)
	if got := m.At(1, 2); got != 5 {
		t.Fatalf("At(1,2) = %g, want 5", got)
	}
	m.Add(1, 2, 2.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("after Add: %g, want 7.5", got)
	}
}

func TestRowIsView(t *testing.T) {
	m := NewDense(2, 2)
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must return a view, not a copy")
	}
}

func TestZeroDiagonal(t *testing.T) {
	m := NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	m.ZeroDiagonal()
	if m.At(0, 0) != 0 || m.At(1, 1) != 0 || m.At(0, 1) != 2 {
		t.Fatalf("ZeroDiagonal wrong: %v", m.Data)
	}
}

func TestMulVec(t *testing.T) {
	m := NewDenseFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	y := m.MulVec([]float64{1, 1, 1}, nil)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestMulVecReuse(t *testing.T) {
	m := NewDenseFrom(2, 2, []float64{1, 0, 0, 1})
	buf := make([]float64, 2)
	y := m.MulVec([]float64{3, 4}, buf)
	if &y[0] != &buf[0] {
		t.Fatal("MulVec should reuse provided buffer")
	}
	if y[0] != 3 || y[1] != 4 {
		t.Fatalf("identity MulVec = %v", y)
	}
}

func TestNNZ(t *testing.T) {
	m := NewDenseFrom(2, 2, []float64{0, 0.5, 1e-12, -2})
	if got := m.NNZ(1e-9); got != 2 {
		t.Fatalf("NNZ = %d, want 2", got)
	}
}

func TestApplyMask(t *testing.T) {
	m := NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	mask := NewBool(2, 2)
	mask.Set(0, 0, true)
	mask.Set(1, 1, true)
	m.ApplyMask(mask)
	if m.At(0, 1) != 0 || m.At(1, 0) != 0 || m.At(0, 0) != 1 || m.At(1, 1) != 4 {
		t.Fatalf("ApplyMask wrong: %v", m.Data)
	}
}

func TestEqualTolerance(t *testing.T) {
	a := NewDenseFrom(1, 2, []float64{1, 2})
	b := NewDenseFrom(1, 2, []float64{1.0001, 2})
	if !a.Equal(b, 1e-3) {
		t.Fatal("expected equal within tolerance")
	}
	if a.Equal(b, 1e-6) {
		t.Fatal("expected unequal at tight tolerance")
	}
	c := NewDense(2, 1)
	if a.Equal(c, 1) {
		t.Fatal("different shapes must not compare equal")
	}
}

func TestBoolCount(t *testing.T) {
	a := NewBool(2, 2)
	a.Set(0, 0, true)
	a.Set(1, 1, true)
	if a.Count() != 2 {
		t.Fatalf("Count = %d, want 2", a.Count())
	}
}

// Lightweight deterministic helper RNG for property tests (keeps this
// package dependency-free).
type testRand struct{ state uint64 }

func newTestRand(seed int64) *testRand { return &testRand{state: uint64(seed)*2654435761 + 1} }

func (r *testRand) next() float64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return float64(r.state>>11) / (1 << 53)
}

func randDense(r *testRand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.next()*2 - 1
	}
	return m
}

func randVec(r *testRand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.next()*2 - 1
	}
	return v
}
