package train

import (
	"fmt"
	"math"
	"testing"

	"dsgl/internal/mat"
)

// refAddRows is the moment accumulation as it was before blocking, one
// sample per pass over each row, kept verbatim as the reference of
// FuzzBlockedKernels.
func refAddRows(m *Moments, samples [][]float64, lo, hi int) {
	obs := m.obsIdx[lo:]
	x := make([]float64, len(obs))
	y := make([]float64, len(m.unkIdx))
	for _, smp := range samples {
		for k, idx := range obs {
			x[k] = smp[idx]
		}
		for u, idx := range m.unkIdx {
			y[u] = smp[idx]
		}
		for i := lo; i < hi; i++ {
			xs := x[i-lo:]
			vi := xs[0]
			if vi == 0 {
				continue
			}
			grow := m.g.Row(i)[i:]
			grow = grow[:len(xs)]
			for j, v := range xs {
				grow[j] += vi * v
			}
			brow := m.b.Row(i)
			brow = brow[:len(y)]
			for u, v := range y {
				brow[u] += vi * v
			}
		}
	}
}

// refSolveMulti is the elimination as it was before blocking, one pivot
// column per pass over A and B together, kept verbatim as the reference of
// FuzzBlockedKernels.
func refSolveMulti(a, b *mat.Dense) (*mat.Dense, error) {
	n := a.Rows
	if a.Cols != n || b.Rows != n {
		return nil, fmt.Errorf("train: solveMulti shape mismatch")
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a.At(r, col)) > math.Abs(a.At(piv, col)) {
				piv = r
			}
		}
		if a.At(piv, col) == 0 {
			return nil, fmt.Errorf("train: singular system at column %d", col)
		}
		if piv != col {
			swapRows(a, piv, col)
			swapRows(b, piv, col)
		}
		pv := a.At(col, col)
		acol, bcol := a.Row(col)[col:], b.Row(col)
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) / pv
			if f == 0 {
				continue
			}
			arow := a.Row(r)[col:]
			arow = arow[:len(acol)]
			for c, v := range acol {
				arow[c] -= f * v
			}
			brow := b.Row(r)
			brow = brow[:len(bcol)]
			for c, v := range bcol {
				brow[c] -= f * v
			}
		}
	}
	// Back substitution in place, bottom row first: row r of B becomes row
	// r of X once the rows below it are final. Every entry subtracts its
	// terms in ascending k before the division, as the entry-at-a-time
	// textbook loop does, but the sweep runs along rows.
	for r := n - 1; r >= 0; r-- {
		arow, xr := a.Row(r), b.Row(r)
		for k := r + 1; k < n; k++ {
			ark := arow[k]
			xk := b.Row(k)
			xk = xk[:len(xr)]
			for c, v := range xk {
				xr[c] -= ark * v
			}
		}
		for c := range xr {
			xr[c] /= arow[r]
		}
	}
	return b, nil
}

// fuzzValue decodes one input byte: 0x00 is +0, 0x80 is −0, and every
// other byte a multiple of 1/16 in [−7.9375, 7.9375], so zeros and ties
// are common.
func fuzzValue(b byte) float64 {
	if b == 0x80 {
		return math.Copysign(0, -1)
	}
	return float64(int8(b)) / 16
}

// FuzzBlockedKernels holds the blocked training kernels to the loops they
// replaced, bit for bit, on shapes and values decoded from the input:
//
//   - Moments.Add over a prefix and then the suffix of the samples, at
//     1–8 workers each, must accumulate exactly the G and B one
//     single-block pass of the per-sample loop accumulates. Sample counts
//     need not be multiples of the four-sample block, and ±0 entries are
//     common.
//   - solveMulti at 1–8 workers must return exactly the X, or the error,
//     of the one-column-per-pass elimination, for 1 to 12 unknowns (odd
//     and even), on systems that force row swaps, have zero multipliers,
//     or are singular.
//
// Layout: byte 0 sizes the moments (2–16 variables) and bytes 1–2 mark
// which are observed; byte 3 holds the two Add worker counts and byte 4
// the prefix length; bytes 5–7 give the system size, right-hand-side
// columns and solve workers. The remaining bytes are values (fuzzValue),
// read as samples by the first check and as A then B by the second.
func FuzzBlockedKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		hdr, vals := data[:8], data[8:]
		checkMoments(t, hdr, vals)
		checkSolve(t, hdr, vals)
	})
}

func checkMoments(t *testing.T, hdr, vals []byte) {
	n := 2 + int(hdr[0])%15
	bits := int(hdr[1]) | int(hdr[2])<<8
	observed := make([]bool, n)
	for i := range observed {
		observed[i] = bits>>i&1 == 1
	}
	observed[0], observed[n-1] = true, false
	count := min(len(vals)/n, 64)
	samples := make([][]float64, count)
	for s := range samples {
		samples[s] = make([]float64, n)
		for i := range samples[s] {
			samples[s][i] = fuzzValue(vals[s*n+i])
		}
	}
	w1, w2 := 1+int(hdr[3])%8, 1+int(hdr[3]>>3)%8
	split := int(hdr[4]) % (count + 1)

	ref, err := NewMoments(observed)
	if err != nil {
		t.Fatal(err)
	}
	refAddRows(ref, samples, 0, len(ref.obsIdx))
	got, err := NewMoments(observed)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Add(samples[:split], w1); err != nil {
		t.Fatal(err)
	}
	if err := got.Add(samples[split:], w2); err != nil {
		t.Fatal(err)
	}
	if !sameBits(got.g.Data, ref.g.Data) || !sameBits(got.b.Data, ref.b.Data) {
		t.Fatalf("%d samples over %d variables, split %d at workers %d/%d: moments differ from the per-sample loop", count, n, split, w1, w2)
	}
}

func checkSolve(t *testing.T, hdr, vals []byte) {
	n, nb, workers := 1+int(hdr[5])%12, 1+int(hdr[6])%5, 1+int(hdr[7])%8
	next := func() float64 {
		if len(vals) == 0 {
			return 0
		}
		v := fuzzValue(vals[0])
		vals = vals[1:]
		return v
	}
	a, b := mat.NewDense(n, n), mat.NewDense(n, nb)
	for i := range a.Data {
		a.Data[i] = next()
	}
	for i := range b.Data {
		b.Data[i] = next()
	}
	want, wantErr := refSolveMulti(a.Clone(), b.Clone())
	got, err := solveMulti(a, b, workers)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("n=%d: error %v, reference %v", n, err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("n=%d: error %q, reference %q", n, err, wantErr)
	case err == nil && !sameBits(got.Data, want.Data):
		t.Fatalf("n=%d nb=%d workers=%d: X differs from the reference elimination", n, nb, workers)
	}
}
