package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func randSquareCSR(r *testRand, n int, density float64) *CSR {
	m := NewDense(n, n)
	for i := range m.Data {
		if r.next() < density {
			m.Data[i] = r.next()*2 - 1
		}
	}
	return FromDense(m, 0)
}

// splitColsReference builds SplitRowPlan(s, clamped) the way the plan
// compilers first did, from SplitCols: static rows are the rows whose free
// part is empty (content = the full row, since every entry is clamped),
// dyn rows are the mixed rows kept whole, clamped and empty rows appear in
// neither.
func splitColsReference(s *CSR, clamped []bool) (static, dyn *CSR) {
	n := s.Rows
	freePart, clampPart := s.SplitCols(clamped)
	static = &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	dyn = &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		lo, hi := s.RowPtr[i], s.RowPtr[i+1]
		switch {
		case clamped[i] || lo == hi:
		case freePart.RowNNZ(i) == 0:
			clo, chi := clampPart.RowPtr[i], clampPart.RowPtr[i+1]
			static.ColIdx = append(static.ColIdx, clampPart.ColIdx[clo:chi]...)
			static.Val = append(static.Val, clampPart.Val[clo:chi]...)
		default:
			dyn.ColIdx = append(dyn.ColIdx, s.ColIdx[lo:hi]...)
			dyn.Val = append(dyn.Val, s.Val[lo:hi]...)
		}
		static.RowPtr[i+1] = len(static.Val)
		dyn.RowPtr[i+1] = len(dyn.Val)
	}
	return static, dyn
}

// TestSplitRowPlanMatchesSplitCols pins SplitRowPlan to the original
// SplitCols-based construction the plan compilers used.
func TestSplitRowPlanMatchesSplitCols(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		n := 8
		s := randSquareCSR(r, n, 0.35)
		clamped := make([]bool, n)
		for j := range clamped {
			clamped[j] = r.next() < 0.5
		}
		static, dyn := SplitRowPlan(s, clamped)
		refStatic, refDyn := splitColsReference(s, clamped)
		return csrBitIdentical(static, refStatic) && csrBitIdentical(dyn, refDyn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// csrBitIdentical is structural equality with values compared by bit
// pattern, so -0 and +0 (both legal stored couplings) are told apart.
func csrBitIdentical(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.RowPtr) != len(b.RowPtr) ||
		len(a.ColIdx) != len(b.ColIdx) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] || math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// decodeCouplings reads a coupling list from fuzz bytes: a matrix count
// (1-4), a dimension (1-12), then one byte per matrix cell. A cell byte
// with its low two bits clear stores an entry whose value comes from the
// remaining six bits: -0, an explicit +0, or a multiple of 1/8 in
// [-3.75, 3.75]. Rows may end up empty. It returns the unread bytes.
func decodeCouplings(data []byte) (*Couplings, []byte) {
	if len(data) < 2 {
		return nil, nil
	}
	count, n := 1+int(data[0])%4, 1+int(data[1])%12
	data = data[2:]
	mats := make([]*CSR, count)
	for k := range mats {
		s := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var b byte
				if len(data) > 0 {
					b, data = data[0], data[1:]
				}
				if b&3 != 0 {
					continue
				}
				v := float64(int(b>>2)-32) / 8
				switch b >> 2 {
				case 0:
					v = math.Copysign(0, -1)
				case 1:
					v = 0
				}
				s.ColIdx = append(s.ColIdx, j)
				s.Val = append(s.Val, v)
			}
			s.RowPtr[i+1] = len(s.Val)
		}
		mats[k] = s
	}
	return NewCouplings(mats...), data
}

// checkUnfold unfolds one mask into dst and holds the result to Unfold's
// contract: every Static matrix is empty, Dyn is the coupling list itself,
// and Free and Clamped equal split's (the Split of the same mask).
func checkUnfold(t *testing.T, c *Couplings, mask []bool, split, dst *ClampSplit) {
	t.Helper()
	n := c.Dim()
	c.Unfold(mask, dst)
	empty := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	if len(dst.Static) != len(c.Mats) || len(dst.Dyn) != len(c.Mats) {
		t.Fatalf("unfolded plan has %d static and %d dyn matrices, want %d", len(dst.Static), len(dst.Dyn), len(c.Mats))
	}
	for k := range c.Mats {
		if !csrBitIdentical(dst.Static[k], empty) {
			t.Fatalf("unfolded Static[%d] is not empty", k)
		}
		if dst.Dyn[k] != c.Mats[k] {
			t.Fatalf("unfolded Dyn[%d] is not the coupling matrix", k)
		}
	}
	if !intsEqual(dst.Free, split.Free) || !intsEqual(dst.Clamped, split.Clamped) {
		t.Fatalf("unfolded free/clamped %v/%v, Split's %v/%v", dst.Free, dst.Clamped, split.Free, split.Clamped)
	}
}

// checkSplit splits one mask and holds the plan to the SplitCols
// reference matrix by matrix, bit for bit, and its Free and Clamped lists
// to the mask, ascending. It returns the split.
func checkSplit(t *testing.T, c *Couplings, mask []bool) *ClampSplit {
	t.Helper()
	sp := c.Split(mask)
	if len(sp.Static) != len(c.Mats) || len(sp.Dyn) != len(c.Mats) {
		t.Fatalf("split has %d static and %d dyn matrices, want %d", len(sp.Static), len(sp.Dyn), len(c.Mats))
	}
	for k, m := range c.Mats {
		static, dyn := splitColsReference(m, mask)
		if !csrBitIdentical(sp.Static[k], static) || !csrBitIdentical(sp.Dyn[k], dyn) {
			t.Fatalf("Split of matrix %d differs from the SplitCols reference", k)
		}
	}
	var free, clamped []int
	for i, cl := range mask {
		if cl {
			clamped = append(clamped, i)
		} else {
			free = append(free, i)
		}
	}
	if !intsEqual(sp.Free, free) || !intsEqual(sp.Clamped, clamped) {
		t.Fatalf("split free/clamped %v/%v, want %v/%v", sp.Free, sp.Clamped, free, clamped)
	}
	return sp
}

// FuzzClampSplit is the differential check of the clamp split that both
// inference backends anneal under. From the input it decodes a coupling
// list and a walk of clamp masks: the first mask's bits come from the
// input, then every step byte flips up to six positions (repeats cancel),
// read from the bytes that follow. Every mask of the walk is split and
// held to the SplitCols reference (checkSplit), and unfolded into one
// reused plan (checkUnfold), whose last refill must not allocate.
func FuzzClampSplit(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, rest := decodeCouplings(data)
		if c == nil {
			return
		}
		n := c.Dim()
		mask := make([]bool, n)
		for i := range mask {
			if len(rest) > 0 {
				mask[i], rest = rest[0]&1 == 1, rest[1:]
			}
		}
		var unfolded ClampSplit
		checkUnfold(t, c, mask, checkSplit(t, c, mask), &unfolded)
		for len(rest) > 0 {
			flips := int(rest[0]) % 7
			rest = rest[1:]
			next := append([]bool(nil), mask...)
			for ; flips > 0 && len(rest) > 0; flips-- {
				next[int(rest[0])%n] = !next[int(rest[0])%n]
				rest = rest[1:]
			}
			checkUnfold(t, c, next, checkSplit(t, c, next), &unfolded)
			mask = next
		}
		// Every mask of the walk went through the same plan, so its
		// slices have room for the last one: a refill must not allocate.
		if allocs := testing.AllocsPerRun(1, func() { c.Unfold(mask, &unfolded) }); allocs != 0 {
			t.Fatalf("Unfold into a reused plan allocated %v times", allocs)
		}
	})
}
