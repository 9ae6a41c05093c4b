package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestFromDenseRoundTrip(t *testing.T) {
	m := NewDenseFrom(3, 3, []float64{0, 1, 0, 2, 0, 3, 0, 0, 0})
	s := FromDense(m, 0)
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", s.NNZ())
	}
	back := s.ToDense()
	if !back.Equal(m, 0) {
		t.Fatalf("round trip mismatch: %v vs %v", back.Data, m.Data)
	}
}

func TestFromDenseEps(t *testing.T) {
	m := NewDenseFrom(1, 3, []float64{0.001, 0.5, -0.0005})
	s := FromDense(m, 0.01)
	if s.NNZ() != 1 || s.Val[0] != 0.5 {
		t.Fatalf("eps pruning failed: %v", s.Val)
	}
}

func TestCSRAt(t *testing.T) {
	m := NewDenseFrom(2, 3, []float64{0, 7, 0, 1, 0, 2})
	s := FromDense(m, 0)
	cases := [][3]float64{{0, 1, 7}, {0, 0, 0}, {1, 0, 1}, {1, 2, 2}, {1, 1, 0}}
	for _, c := range cases {
		if got := s.At(int(c[0]), int(c[1])); got != c[2] {
			t.Fatalf("At(%d,%d) = %g, want %g", int(c[0]), int(c[1]), got, c[2])
		}
	}
}

func TestCSRMulVecMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		m := NewDense(6, 6)
		for i := range m.Data {
			if r.next() < 0.3 {
				m.Data[i] = r.next()*2 - 1
			}
		}
		v := randVec(r, 6)
		dy := m.MulVec(v, nil)
		sy := FromDense(m, 0).MulVec(v, nil)
		for i := range dy {
			if math.Abs(dy[i]-sy[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRRowNNZ(t *testing.T) {
	m := NewDenseFrom(2, 2, []float64{1, 1, 0, 1})
	s := FromDense(m, 0)
	if s.RowNNZ(0) != 2 || s.RowNNZ(1) != 1 {
		t.Fatalf("RowNNZ = %d,%d", s.RowNNZ(0), s.RowNNZ(1))
	}
}

func TestBuilderSumsDuplicates(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 1, 1.5)
	b.Add(0, 1, 0.5)
	b.Add(1, 0, -1)
	s := b.Build()
	if got := s.At(0, 1); got != 2 {
		t.Fatalf("duplicate sum = %g, want 2", got)
	}
	if got := s.At(1, 0); got != -1 {
		t.Fatalf("At(1,0) = %g", got)
	}
}

func TestBuilderEmptyRows(t *testing.T) {
	b := NewBuilder(4, 4)
	b.Add(3, 0, 1)
	s := b.Build()
	if s.RowNNZ(0) != 0 || s.RowNNZ(1) != 0 || s.RowNNZ(2) != 0 || s.RowNNZ(3) != 1 {
		t.Fatalf("row pointers wrong: %v", s.RowPtr)
	}
	if s.At(3, 0) != 1 {
		t.Fatal("missing entry")
	}
}

// addCall is one recorded Builder.Add.
type addCall struct {
	i, j int
	v    float64
}

// mapBuild is the map-and-sort Builder the linear-time Build replaced,
// kept as the reference: duplicates sum into a map entry that starts at +0,
// in Add order, and the keys are then sorted by (row, column).
func mapBuild(rows, cols int, trips []addCall) *CSR {
	entries := map[[2]int]float64{}
	for _, t := range trips {
		entries[[2]int{t.i, t.j}] += t.v
	}
	keys := make([][2]int, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	s := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1), ColIdx: []int{}, Val: []float64{}}
	for _, k := range keys {
		s.RowPtr[k[0]+1]++
		s.ColIdx = append(s.ColIdx, k[1])
		s.Val = append(s.Val, entries[k])
	}
	for i := 0; i < rows; i++ {
		s.RowPtr[i+1] += s.RowPtr[i]
	}
	return s
}

// sameCSR compares structure exactly and values by IEEE-754 bits, so a -0
// that the reference stores as +0 counts as a difference.
func sameCSR(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || !reflect.DeepEqual(a.RowPtr, b.RowPtr) ||
		len(a.ColIdx) != len(b.ColIdx) || len(a.Val) != len(b.Val) {
		return false
	}
	for p := range a.Val {
		if a.ColIdx[p] != b.ColIdx[p] || math.Float64bits(a.Val[p]) != math.Float64bits(b.Val[p]) {
			return false
		}
	}
	return true
}

// builderValues are the triplet values the Builder differential tests draw
// from: signed zeros, values whose sum depends on Add order, huge values
// that cancel, and a subnormal.
var builderValues = []float64{math.Copysign(0, -1), 0, 1, -1, 0.1, -0.1, 1e300, -1e300, 1e-310, 3}

// builderStream is the random triplet stream TestBuilderMatchesMapReference
// draws for seed: out-of-order adds, many duplicates, and only a random
// band of rows and columns touched, so the rest stay empty. Its second
// round of Adds starts at split.
func builderStream(seed int64) (rows, cols int, trips []addCall, split int) {
	r := newTestRand(seed)
	rows, cols = 1+int(r.next()*9), 1+int(r.next()*9)
	rowSpan, colSpan := 1+int(r.next()*float64(rows)), 1+int(r.next()*float64(cols))
	for round := 0; round < 2; round++ {
		split = len(trips)
		for k := int(r.next() * 40); k > 0; k-- {
			i, j := rows-1-int(r.next()*float64(rowSpan)), int(r.next()*float64(colSpan))
			v := builderValues[int(r.next()*float64(len(builderValues)))]
			if r.next() < 0.3 {
				v = r.next()*2 - 1
			}
			trips = append(trips, addCall{i, j, v})
		}
	}
	return rows, cols, trips, split
}

// builderMismatch adds trips to one Builder in two rounds, the second
// starting at split, and reports where Build first differs from the map
// reference: after each round it must match bit for bit, and again on a
// repeated Build.
func builderMismatch(rows, cols int, trips []addCall, split int) error {
	b := NewBuilder(rows, cols)
	start := 0
	for round, end := range []int{split, len(trips)} {
		for _, a := range trips[start:end] {
			b.Add(a.i, a.j, a.v)
		}
		start = end
		want := mapBuild(rows, cols, trips[:end])
		for call := 0; call < 2; call++ {
			if got := b.Build(); !sameCSR(got, want) {
				return fmt.Errorf("round %d call %d: Build diverges from the map reference\n got  %+v\n want %+v",
					round, call, got, want)
			}
		}
	}
	return nil
}

// TestBuilderMatchesMapReference drives random triplet streams through the
// Builder and the map reference: out-of-order adds, many duplicates whose
// sum depends on Add order, signed zeros, huge values that cancel, rows
// and columns left empty, non-square shapes, and Build called twice with
// more Adds in between. Every result must match bit for bit.
func TestBuilderMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		if err := builderMismatch(builderStream(seed)); err != nil {
			t.Fatalf("seed %d %v", seed, err)
		}
	}
}

// FuzzBuilderMatchesMapReference is TestBuilderMatchesMapReference on
// decoded streams. The input's first three bytes are the row count and the
// column count (1 to 9 each) and the split point; each triplet after them
// is a row byte, a column byte and a value byte that picks one of
// builderValues or, past them, reads the next 8 bytes as the bits of an
// arbitrary float (a non-finite one drops the triplet).
func FuzzBuilderMatchesMapReference(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(encodeBuilderStream(builderStream(seed)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		rows, cols := 1+int(data[0])%9, 1+int(data[1])%9
		var trips []addCall
		for rest := data[3:]; len(rest) >= 3; {
			a := addCall{i: int(rest[0]) % rows, j: int(rest[1]) % cols}
			pick := int(rest[2]) % (len(builderValues) + 1)
			rest = rest[3:]
			if pick < len(builderValues) {
				a.v = builderValues[pick]
			} else {
				if len(rest) < 8 {
					break
				}
				a.v = math.Float64frombits(binary.LittleEndian.Uint64(rest))
				rest = rest[8:]
				if math.IsNaN(a.v) || math.IsInf(a.v, 0) {
					continue
				}
			}
			trips = append(trips, a)
		}
		if err := builderMismatch(rows, cols, trips, int(data[2])%(len(trips)+1)); err != nil {
			t.Fatal(err)
		}
	})
}

// encodeBuilderStream is the FuzzBuilderMatchesMapReference input that
// decodes to the given stream.
func encodeBuilderStream(rows, cols int, trips []addCall, split int) []byte {
	data := []byte{byte(rows - 1), byte(cols - 1), byte(split)}
	for _, a := range trips {
		pick := len(builderValues)
		for k, v := range builderValues {
			if math.Float64bits(v) == math.Float64bits(a.v) {
				pick = k
				break
			}
		}
		data = append(data, byte(a.i), byte(a.j), byte(pick))
		if pick == len(builderValues) {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(a.v))
		}
	}
	return data
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2, 2).Add(2, 0, 1)
}

// TestSplitCols is the table test of the column-partition kernel: empty
// rows, all-clamped, none-clamped, and the 1×1 corner, plus a mixed case.
func TestSplitCols(t *testing.T) {
	for _, tc := range []struct {
		name           string
		rows, cols     int
		data           []float64
		mask           []bool
		wantFreeNNZ    int
		wantClampedNNZ int
	}{
		{
			name: "mixed-rows",
			rows: 3, cols: 4,
			data: []float64{
				1, 0, 2, 0,
				0, 3, 0, 4,
				5, 6, 0, 0,
			},
			mask:        []bool{true, false, true, false},
			wantFreeNNZ: 3, wantClampedNNZ: 3,
		},
		{
			name: "empty-rows",
			rows: 4, cols: 3,
			data: []float64{
				0, 0, 0,
				1, 0, 2,
				0, 0, 0,
				0, 3, 0,
			},
			mask:        []bool{false, true, false},
			wantFreeNNZ: 2, wantClampedNNZ: 1,
		},
		{
			name: "all-clamped",
			rows: 2, cols: 2,
			data:        []float64{0, 1, 2, 0},
			mask:        []bool{true, true},
			wantFreeNNZ: 0, wantClampedNNZ: 2,
		},
		{
			name: "none-clamped",
			rows: 2, cols: 2,
			data:        []float64{0, 1, 2, 0},
			mask:        []bool{false, false},
			wantFreeNNZ: 2, wantClampedNNZ: 0,
		},
		{
			name: "1x1-clamped",
			rows: 1, cols: 1,
			data:        []float64{7},
			mask:        []bool{true},
			wantFreeNNZ: 0, wantClampedNNZ: 1,
		},
		{
			name: "1x1-free",
			rows: 1, cols: 1,
			data:        []float64{7},
			mask:        []bool{false},
			wantFreeNNZ: 1, wantClampedNNZ: 0,
		},
		{
			name: "1x1-empty",
			rows: 1, cols: 1,
			data:        []float64{0},
			mask:        []bool{true},
			wantFreeNNZ: 0, wantClampedNNZ: 0,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := NewDenseFrom(tc.rows, tc.cols, tc.data)
			s := FromDense(orig, 0)
			free, clamped := s.SplitCols(tc.mask)
			if free.Rows != s.Rows || free.Cols != s.Cols ||
				clamped.Rows != s.Rows || clamped.Cols != s.Cols {
				t.Fatalf("shapes diverge: free %dx%d clamped %dx%d, want %dx%d",
					free.Rows, free.Cols, clamped.Rows, clamped.Cols, s.Rows, s.Cols)
			}
			if free.NNZ() != tc.wantFreeNNZ || clamped.NNZ() != tc.wantClampedNNZ {
				t.Fatalf("NNZ split = (%d free, %d clamped), want (%d, %d)",
					free.NNZ(), clamped.NNZ(), tc.wantFreeNNZ, tc.wantClampedNNZ)
			}
			// Every free entry must sit on an unmasked column, every
			// clamped entry on a masked one.
			for _, j := range free.ColIdx {
				if tc.mask[j] {
					t.Fatalf("free part holds masked column %d", j)
				}
			}
			for _, j := range clamped.ColIdx {
				if !tc.mask[j] {
					t.Fatalf("clamped part holds unmasked column %d", j)
				}
			}
			// free + clamped must recompose the original element-wise.
			sum := free.ToDense()
			sum.AddM(clamped.ToDense())
			if !sum.Equal(orig, 0) {
				t.Fatalf("free+clamped != original: %v vs %v", sum.Data, orig.Data)
			}
			// Within-row order must be preserved (columns ascending, as
			// FromDense stores them).
			for _, part := range []*CSR{free, clamped} {
				for i := 0; i < part.Rows; i++ {
					for p := part.RowPtr[i] + 1; p < part.RowPtr[i+1]; p++ {
						if part.ColIdx[p-1] >= part.ColIdx[p] {
							t.Fatalf("row %d order broken: %v", i, part.ColIdx[part.RowPtr[i]:part.RowPtr[i+1]])
						}
					}
				}
			}
		})
	}
}

func TestSplitColsMaskLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short mask")
		}
	}()
	FromDense(NewDense(2, 3), 0).SplitCols([]bool{true})
}

// TestMulVecAdd is the table test of the fused bias+matvec kernel.
func TestMulVecAdd(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rows, cols int
		data       []float64
		x, add     []float64
		want       []float64
	}{
		{
			name: "basic",
			rows: 2, cols: 3,
			data: []float64{1, 0, 2, 0, -1, 0},
			x:    []float64{1, 2, 3},
			add:  []float64{10, 20},
			want: []float64{17, 18},
		},
		{
			name: "empty-rows-pass-bias-through",
			rows: 3, cols: 2,
			data: []float64{0, 0, 1, 1, 0, 0},
			x:    []float64{2, 3},
			add:  []float64{-1, 0, 4},
			want: []float64{-1, 5, 4},
		},
		{
			name: "1x1",
			rows: 1, cols: 1,
			data: []float64{2},
			x:    []float64{3},
			add:  []float64{1},
			want: []float64{7},
		},
		{
			name: "all-empty",
			rows: 2, cols: 2,
			data: []float64{0, 0, 0, 0},
			x:    []float64{9, 9},
			add:  []float64{1, 2},
			want: []float64{1, 2},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := FromDense(NewDenseFrom(tc.rows, tc.cols, tc.data), 0)
			got := s.MulVecAdd(tc.x, tc.add, nil)
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("y[%d] = %g, want %g", i, got[i], tc.want[i])
				}
			}
			// Reuse: a correctly-sized y must be written in place.
			buf := make([]float64, tc.rows)
			if out := s.MulVecAdd(tc.x, tc.add, buf); &out[0] != &buf[0] {
				t.Fatal("MulVecAdd did not reuse the provided buffer")
			}
			// Aliasing y == add is allowed.
			aliased := append([]float64(nil), tc.add...)
			s.MulVecAdd(tc.x, aliased, aliased)
			for i := range tc.want {
				if aliased[i] != tc.want[i] {
					t.Fatalf("aliased y[%d] = %g, want %g", i, aliased[i], tc.want[i])
				}
			}
		})
	}
}

// TestMulVecAddComposesWithSplitCols is the bit-identity property the clamp
// plans rely on: for any matrix and mask, folding the masked columns into a
// bias and fusing it back via MulVecAdd over rows whose free part is empty
// reproduces MulVec's full-row sums exactly (not just approximately).
func TestMulVecAddComposesWithSplitCols(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		n := 7
		m := NewDense(n, n)
		for i := range m.Data {
			if r.next() < 0.4 {
				m.Data[i] = r.next()*2 - 1
			}
		}
		mask := make([]bool, n)
		for j := range mask {
			mask[j] = r.next() < 0.5
		}
		s := FromDense(m, 0)
		free, clamp := s.SplitCols(mask)
		x := randVec(r, n)
		bias := clamp.MulVec(x, nil)
		fused := free.MulVecAdd(x, bias, nil)
		full := s.MulVec(x, nil)
		for i := 0; i < n; i++ {
			if free.RowNNZ(i) == 0 && fused[i] != full[i] {
				// A fully-folded row must match bit for bit.
				return false
			}
			if math.Abs(fused[i]-full[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecAddDimensionPanics(t *testing.T) {
	s := FromDense(NewDense(2, 3), 0)
	for _, tc := range []struct {
		name   string
		x, add []float64
	}{
		{"short-x", make([]float64, 2), make([]float64, 2)},
		{"short-add", make([]float64, 3), make([]float64, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			s.MulVecAdd(tc.x, tc.add, nil)
		})
	}
}

func TestBuilderMatchesFromDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		m := NewDense(5, 5)
		b := NewBuilder(5, 5)
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				if r.next() < 0.4 {
					v := r.next()
					m.Set(i, j, v)
					b.Add(i, j, v)
				}
			}
		}
		return b.Build().ToDense().Equal(m, 1e-15)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
