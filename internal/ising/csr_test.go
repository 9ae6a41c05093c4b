package ising

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"dsgl/internal/mat"
	"dsgl/internal/rng"
)

// newModelCSRReference is NewModelCSR as it was before its symmetry check
// became linear, kept verbatim as the differential reference: it looks up
// every entry's mirror with CSR.At, a binary search that assumes sorted,
// unique column indices.
func newModelCSRReference(w *mat.CSR, h []float64) (*Model, error) {
	if w.Rows != w.Cols {
		return nil, fmt.Errorf("ising: W must be square, got %dx%d", w.Rows, w.Cols)
	}
	if len(h) != w.Rows {
		return nil, fmt.Errorf("ising: len(h)=%d, want %d", len(h), w.Rows)
	}
	// Finiteness first: NaN never equals its mirror entry, so the symmetry
	// check below would misreport it.
	for i := 0; i < w.Rows; i++ {
		for p := w.RowPtr[i]; p < w.RowPtr[i+1]; p++ {
			if !finite(w.Val[p]) {
				return nil, fmt.Errorf("ising: W[%d][%d] = %g is not finite", i, w.ColIdx[p], w.Val[p])
			}
		}
	}
	if err := checkFiniteH(h); err != nil {
		return nil, err
	}
	for i := 0; i < w.Rows; i++ {
		for p := w.RowPtr[i]; p < w.RowPtr[i+1]; p++ {
			j := w.ColIdx[p]
			if j == i {
				return nil, fmt.Errorf("ising: non-zero diagonal at %d", i)
			}
			if w.At(j, i) != w.Val[p] {
				return nil, fmt.Errorf("ising: W not symmetric at (%d,%d)", i, j)
			}
		}
	}
	return &Model{N: w.Rows, W: w, H: mat.CopyVec(h)}, nil
}

// fuzzValues are the values a fuzz entry can store: signed zeros, grid and
// off-grid weights, and one NaN and one +Inf in 32.
var fuzzValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 1, -1, 1, -1,
	2, -2, 0.25, -0.25, 0.5, 3, -3, 1.5,
	0, 0, 1, -1, 2, -2, 4, -4,
	0.1, -0.1, 7, -7, 1, -1, math.NaN(), math.Inf(1),
}

// fuzzCSR decodes a fuzz input into a square CSR and a field. Byte 0 sets
// n = 2 + b&3 and, in bits 0x10, 0x20 and 0x40, how entries are stored;
// the next n bytes set h (zero unless the byte's top bit is set), and every
// following pair, up to 48 of them, an entry: row b>>4, column b&15 (both
// reduced modulo the range), and value. A diagonal entry is dropped unless the value byte's
// top bit is set. With mirror (0x10) every entry is also stored at (c, r).
// With 0x40 the entries go through mat.Builder.Build: columns in range,
// sorted, duplicates summed. Otherwise rows keep their entries in input
// order, duplicates stay, columns range over [-1, n], and sorted (0x20)
// orders each row by column.
func fuzzCSR(data []byte) (*mat.CSR, []float64) {
	if len(data) == 0 {
		data = []byte{0}
	}
	n := 2 + int(data[0]&3)
	mirror, sorted, build := data[0]&0x10 != 0, data[0]&0x20 != 0, data[0]&0x40 != 0
	data = data[1:]
	h := make([]float64, n)
	for i := 0; i < n && i < len(data); i++ {
		if data[i]&0x80 != 0 {
			h[i] = fuzzValues[data[i]%32]
		}
	}
	// At most 48 entries: more add nothing a 5-node matrix can show, and
	// long inputs keep the fuzzer minimizing instead of running.
	data = data[min(n, len(data)):]
	data = data[:min(len(data), 96)]
	type entry struct {
		r, c int
		v    float64
	}
	var entries []entry
	for ; len(data) >= 2; data = data[2:] {
		r, c, v := int(data[0]>>4)%n, int(data[0]&15), fuzzValues[data[1]%32]
		if build {
			c %= n
		} else {
			c = c%(n+2) - 1
		}
		if r == c && data[1]&0x80 == 0 {
			continue
		}
		entries = append(entries, entry{r, c, v})
		if mirror && c >= 0 && c < n {
			entries = append(entries, entry{c, r, v})
		}
	}
	if build {
		b := mat.NewBuilder(n, n)
		for _, e := range entries {
			b.Add(e.r, e.c, e.v)
		}
		return b.Build(), h
	}
	rows := make([][]entry, n)
	for _, e := range entries {
		rows[e.r] = append(rows[e.r], e)
	}
	w := &mat.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for i, row := range rows {
		if sorted {
			slices.SortStableFunc(row, func(a, b entry) int { return a.c - b.c })
		}
		for _, e := range row {
			w.ColIdx = append(w.ColIdx, e.c)
			w.Val = append(w.Val, e.v)
		}
		w.RowPtr[i+1] = len(w.Val)
	}
	return w, h
}

// firstMalformedRow returns the first row whose columns are out of range
// or not strictly increasing, or -1.
func firstMalformedRow(w *mat.CSR) int {
	for i := 0; i < w.Rows; i++ {
		prev := -1
		for p := w.RowPtr[i]; p < w.RowPtr[i+1]; p++ {
			if j := w.ColIdx[p]; j <= prev || j >= w.Cols {
				return i
			}
			prev = w.ColIdx[p]
		}
	}
	return -1
}

// checkModelCSR holds NewModelCSR to the reference on w and h. With well-
// formed rows the two must return the same error text, or the same model.
// A malformed row must be rejected, and when every value is finite the
// error must name that row. Any accepted W, with duplicates summed, must
// be symmetric with an empty diagonal.
func checkModelCSR(t *testing.T, w *mat.CSR, h []float64) {
	t.Helper()
	got, err := NewModelCSR(w, h)
	if bad := firstMalformedRow(w); bad >= 0 {
		if err == nil {
			t.Fatalf("row %d is malformed (columns %v, row pointers %v), but W was accepted", bad, w.ColIdx, w.RowPtr)
		}
		allFinite := !slices.ContainsFunc(w.Val, func(v float64) bool { return !finite(v) })
		if want := fmt.Sprintf("W row %d:", bad); allFinite && !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name malformed row %d", err, bad)
		}
		return
	}
	want, wantErr := newModelCSRReference(w, h)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("error %v, reference %v (columns %v, values %v, row pointers %v)", err, wantErr, w.ColIdx, w.Val, w.RowPtr)
	}
	if err != nil {
		return
	}
	if got.N != want.N || got.W != w || !slices.EqualFunc(got.H, h, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	}) {
		t.Fatalf("model %+v, want N %d over the given W and h %v", got, w.Rows, h)
	}
	dense := make([]float64, w.Rows*w.Cols)
	for i := 0; i < w.Rows; i++ {
		for p := w.RowPtr[i]; p < w.RowPtr[i+1]; p++ {
			dense[i*w.Cols+w.ColIdx[p]] += w.Val[p]
		}
	}
	for i := 0; i < w.Rows; i++ {
		for j := 0; j < w.Cols; j++ {
			if dense[i*w.Cols+j] != dense[j*w.Cols+i] || i == j && dense[i*w.Cols+i] != 0 {
				t.Fatalf("accepted W is not symmetric with an empty diagonal at (%d,%d): %v", i, j, dense)
			}
		}
	}
}

// FuzzNewModelCSR holds the linear symmetry check to the binary-search one
// it replaced (see checkModelCSR).
func FuzzNewModelCSR(f *testing.F) {
	f.Add([]byte{0x51, 0, 0, 0, 0x01, 2, 0x12, 3})           // built, mirrored: symmetric
	f.Add([]byte{0x11, 0, 0, 0, 0x03, 2, 0x02, 2})           // mirrored, row 0 unsorted
	f.Add([]byte{0x31, 0, 0, 0, 0x03, 2, 0x02, 2})           // mirrored and sorted: symmetric
	f.Add([]byte{0x20, 0, 0, 0x02, 2, 0x02, 2, 0x11, 2})     // (0,1) twice, its mirror once
	f.Add([]byte{0x21, 0, 0, 0, 0x13, 2, 0x21, 0, 0x22, 2})  // an unmirrored zero before a mirror
	f.Add([]byte{0x21, 0, 0, 0, 0x13, 2, 0x21, 13, 0x22, 2}) // an unmirrored 3 before a mirror
	f.Add([]byte{0x20, 0, 0, 0x00, 2, 0x03, 2})              // columns -1 and n
	f.Fuzz(func(t *testing.T, data []byte) {
		w, h := fuzzCSR(data)
		checkModelCSR(t, w, h)
	})
}

// TestNewModelCSRMatchesReference runs the fuzz target's check on seeded
// random inputs, so every test run covers well-formed, malformed, symmetric
// and asymmetric matrices.
func TestNewModelCSRMatchesReference(t *testing.T) {
	r := rng.New(21)
	accepted := 0
	for trial := 0; trial < 20000; trial++ {
		data := make([]byte, 1+r.Intn(24))
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		w, h := fuzzCSR(data)
		checkModelCSR(t, w, h)
		if _, err := NewModelCSR(w, h); err == nil && w.NNZ() > 0 {
			accepted++
		}
	}
	if accepted < 1000 {
		t.Errorf("only %d of 20000 inputs were non-empty models NewModelCSR accepts", accepted)
	}
}
