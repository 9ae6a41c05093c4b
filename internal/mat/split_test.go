package mat

import (
	"math"
	"testing"
	"testing/quick"
)

// csrIdentical is bit-level structural equality: the property PatchRowPlan
// promises relative to a fresh SplitRowPlan.
func csrIdentical(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols ||
		len(a.RowPtr) != len(b.RowPtr) || len(a.ColIdx) != len(b.ColIdx) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] {
			return false
		}
	}
	for i := range a.Val {
		if a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

func randSquareCSR(r *testRand, n int, density float64) *CSR {
	m := NewDense(n, n)
	for i := range m.Data {
		if r.next() < density {
			m.Data[i] = r.next()*2 - 1
		}
	}
	return FromDense(m, 0)
}

// TestSplitRowPlanMatchesSplitCols pins SplitRowPlan to the original
// SplitCols-based construction the plan compilers used: static rows are the
// rows whose free part is empty (content = the full row, since every entry
// is clamped), dyn rows are the mixed rows kept whole, clamped and empty
// rows appear in neither.
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

		freePart, clampPart := s.SplitCols(clamped)
		refStatic := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
		refDyn := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
		for i := 0; i < n; i++ {
			lo, hi := s.RowPtr[i], s.RowPtr[i+1]
			switch {
			case clamped[i] || lo == hi:
			case freePart.RowNNZ(i) == 0:
				clo, chi := clampPart.RowPtr[i], clampPart.RowPtr[i+1]
				refStatic.ColIdx = append(refStatic.ColIdx, clampPart.ColIdx[clo:chi]...)
				refStatic.Val = append(refStatic.Val, clampPart.Val[clo:chi]...)
			default:
				refDyn.ColIdx = append(refDyn.ColIdx, s.ColIdx[lo:hi]...)
				refDyn.Val = append(refDyn.Val, s.Val[lo:hi]...)
			}
			refStatic.RowPtr[i+1] = len(refStatic.Val)
			refDyn.RowPtr[i+1] = len(refDyn.Val)
		}
		return csrIdentical(static, refStatic) && csrIdentical(dyn, refDyn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestColRows(t *testing.T) {
	s := FromDense(NewDenseFrom(3, 3, []float64{
		1, 0, 2,
		0, 3, 0,
		4, 0, 5,
	}), 0)
	cr := s.ColRows()
	want := [][]int32{{0, 2}, {1}, {0, 2}}
	for j := range want {
		if len(cr[j]) != len(want[j]) {
			t.Fatalf("col %d rows = %v, want %v", j, cr[j], want[j])
		}
		for k := range want[j] {
			if cr[j][k] != want[j][k] {
				t.Fatalf("col %d rows = %v, want %v", j, cr[j], want[j])
			}
		}
	}
}

// TestPatchRowPlanMatchesFull walks a random clamp mask through a sequence
// of small deltas (1–3 bits flipped per step, the sliding-window shape) and
// checks after every step that the patched split is structurally identical
// to a from-scratch SplitRowPlan of the new mask.
func TestPatchRowPlanMatchesFull(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		n := 10
		s := randSquareCSR(r, n, 0.3)
		colRows := s.ColRows()
		clamped := make([]bool, n)
		for j := range clamped {
			clamped[j] = r.next() < 0.5
		}
		static, dyn := SplitRowPlan(s, clamped)
		for step := 0; step < 12; step++ {
			next := append([]bool(nil), clamped...)
			flips := 1 + int(r.next()*3)
			for f := 0; f < flips; f++ {
				j := int(r.next() * float64(n))
				if j >= n {
					j = n - 1
				}
				next[j] = !next[j]
			}
			ps, pd := PatchRowPlan(s, static, dyn, colRows, clamped, next)
			fs, fd := SplitRowPlan(s, next)
			if !csrIdentical(ps, fs) || !csrIdentical(pd, fd) {
				return false
			}
			clamped, static, dyn = next, ps, pd
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPatchRowPlanEqualMasksReturnsPrev: a no-op delta must hand back the
// previous split untouched (same pointers, zero work).
func TestPatchRowPlanEqualMasksReturnsPrev(t *testing.T) {
	r := newTestRand(3)
	s := randSquareCSR(r, 6, 0.4)
	clamped := []bool{true, false, true, false, false, true}
	static, dyn := SplitRowPlan(s, clamped)
	ps, pd := PatchRowPlan(s, static, dyn, s.ColRows(), clamped, append([]bool(nil), clamped...))
	if ps != static || pd != dyn {
		t.Fatal("equal masks should return the previous split unchanged")
	}
}

// TestPatchRowPlanDoesNotMutatePrev: the old split may still sit in a plan
// cache under its own key, so patching must never write into it.
func TestPatchRowPlanDoesNotMutatePrev(t *testing.T) {
	r := newTestRand(9)
	n := 8
	s := randSquareCSR(r, n, 0.4)
	clamped := make([]bool, n)
	clamped[0], clamped[3] = true, true
	static, dyn := SplitRowPlan(s, clamped)
	snapS, snapD := SplitRowPlan(s, clamped)
	next := append([]bool(nil), clamped...)
	next[0], next[5] = false, true
	PatchRowPlan(s, static, dyn, s.ColRows(), clamped, next)
	if !csrIdentical(static, snapS) || !csrIdentical(dyn, snapD) {
		t.Fatal("PatchRowPlan mutated the previous split")
	}
}

// csrBitIdentical is csrIdentical with values compared by bit pattern, so
// -0 and +0 (both legal stored couplings) are told apart.
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

// splitsBitIdentical compares two clamp splits field by field.
func splitsBitIdentical(a, b *ClampSplit) bool {
	if !intsEqual(a.Free, b.Free) || !intsEqual(a.Clamped, b.Clamped) ||
		len(a.Static) != len(b.Static) || len(a.Dyn) != len(b.Dyn) {
		return false
	}
	for k := range a.Static {
		if !csrBitIdentical(a.Static[k], b.Static[k]) || !csrBitIdentical(a.Dyn[k], b.Dyn[k]) {
			return false
		}
	}
	return true
}

// cloneSplit deep-copies a split, so a later comparison can tell whether
// the original was written to.
func cloneSplit(s *ClampSplit) *ClampSplit {
	c := &ClampSplit{Free: append([]int(nil), s.Free...), Clamped: append([]int(nil), s.Clamped...)}
	cp := func(m *CSR) *CSR {
		return &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: append([]int(nil), m.RowPtr...),
			ColIdx: append([]int(nil), m.ColIdx...), Val: append([]float64(nil), m.Val...)}
	}
	for k := range s.Static {
		c.Static = append(c.Static, cp(s.Static[k]))
		c.Dyn = append(c.Dyn, cp(s.Dyn[k]))
	}
	return c
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

// FuzzClampSplitPatch is the differential check of the clamp-plan patcher
// against a fresh split, the pair both inference backends rely on. From
// the input it decodes a coupling list and a walk of clamp masks: the first
// mask's bits come from the input, then every step byte flips up to six
// positions (repeats cancel), read from the bytes that follow. At every
// step Patch must decline exactly when no bit or more than MaxPatchBits
// bits flipped, must otherwise equal Split of the new mask bit for bit,
// and must never write to the split it patches.
func FuzzClampSplitPatch(f *testing.F) {
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
		cur := c.Split(mask)
		for len(rest) > 0 {
			flips := int(rest[0]) % 7
			rest = rest[1:]
			next := append([]bool(nil), mask...)
			for ; flips > 0 && len(rest) > 0; flips-- {
				next[int(rest[0])%n] = !next[int(rest[0])%n]
				rest = rest[1:]
			}
			changed := 0
			for i := range next {
				if next[i] != mask[i] {
					changed++
				}
			}
			before := cloneSplit(cur)
			got := cur.Patch(c, mask, next)
			if !splitsBitIdentical(cur, before) {
				t.Fatal("Patch wrote to the split it patched")
			}
			fresh := c.Split(next)
			if wantNil := changed == 0 || changed > MaxPatchBits; wantNil != (got == nil) {
				t.Fatalf("%d bits flipped: Patch returned nil = %v, want %v", changed, got == nil, wantNil)
			}
			if got != nil && !splitsBitIdentical(got, fresh) {
				t.Fatalf("patched split (%d bits flipped) differs from a fresh split", changed)
			}
			mask, cur = next, fresh
		}
	})
}

// TestClampSplitPatchDeclinesForeignList: a split of a coupling list with a
// different number of matrices is not patchable against this one.
func TestClampSplitPatchDeclinesForeignList(t *testing.T) {
	r := newTestRand(4)
	a := randSquareCSR(r, 5, 0.4)
	one, two := NewCouplings(a), NewCouplings(a, randSquareCSR(r, 5, 0.4))
	old := []bool{true, false, false, true, false}
	next := []bool{true, true, false, true, false}
	if got := one.Split(old).Patch(two, old, next); got != nil {
		t.Fatal("Patch accepted a split of a one-matrix list against a two-matrix list")
	}
	if got := two.Split(old).Patch(two, old, next); got == nil {
		t.Fatal("Patch declined a one-bit delta on its own list")
	}
}
