package datasets

import (
	"bytes"
	"encoding/csv"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	orig := Generate("traffic", Config{N: 8, T: 80})
	var series, adj bytes.Buffer
	if err := orig.WriteSeriesCSV(&series); err != nil {
		t.Fatal(err)
	}
	if err := orig.WriteAdjacencyCSV(&adj); err != nil {
		t.Fatal(err)
	}
	back, err := FromCSV(&series, &adj, CSVSpec{
		Name: "traffic", History: orig.History, Horizon: orig.Horizon, Raw: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if back.N != orig.N || back.T != orig.T || back.F != orig.F {
		t.Fatalf("shape mismatch: %d/%d/%d", back.N, back.T, back.F)
	}
	for i := range orig.X {
		if back.X[i] != orig.X[i] {
			t.Fatalf("data mismatch at %d: %g vs %g", i, back.X[i], orig.X[i])
		}
	}
	for i := range orig.Adj.Data {
		if back.Adj.Data[i] != orig.Adj.Data[i] {
			t.Fatal("adjacency mismatch")
		}
	}
}

func TestReadSeriesCSVHeaderSkipped(t *testing.T) {
	in := "a,b\n1,2\n3,4\n"
	rows, err := ReadSeriesCSV(strings.NewReader(in), CSVSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != 1 || rows[1][1] != 4 {
		t.Fatalf("rows = %v", rows)
	}
}

// TestReadSeriesCSVErrors: every malformed input fails, naming where the
// fault sits when a line has one. strconv.ParseFloat accepts NaN and ±Inf
// tokens, so those used to come back as data.
func TestReadSeriesCSVErrors(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"empty", "", "no data rows"},
		{"non-numeric mid-file", "1,2\n3,x\n", "line 2"},
		{"ragged", "1,2\n3\n", "row 2"},
		{"NaN", "1,NaN\n2,3\n", "line 1 column 2"},
		{"+Inf", "1,2\n+Inf,3\n", "line 2 column 1"},
		{"-inf", "1,2\n2,-inf\n", "line 2 column 2"},
		{"Infinity", "1,2\n3,4\nInfinity,5\n", "line 3 column 1"},
		{"NaN after header", "a,b\n1,nan\n", "line 2 column 2"},
	}
	for _, tc := range cases {
		rows, err := ReadSeriesCSV(strings.NewReader(tc.in), CSVSpec{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: rows %v, error %v; want an error naming %q", tc.name, rows, err, tc.want)
		}
	}
}

func TestReadAdjacencyCSVSymmetrizes(t *testing.T) {
	in := "0,2\n0,0\n"
	adj, err := ReadAdjacencyCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if adj.At(0, 1) != 1 || adj.At(1, 0) != 1 {
		t.Fatalf("expected symmetrized weight 1, got %g/%g", adj.At(0, 1), adj.At(1, 0))
	}
}

// TestReadAdjacencyCSVRejectsNegative covers every invalid weight: a
// negative one, and NaN and ±Inf, which the negative-weight check alone
// passed (NaN < 0 is false), and two finite weights whose symmetrized
// average overflowed to +Inf.
func TestReadAdjacencyCSVRejectsNegative(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"negative", "0,-1\n-1,0\n", "negative adjacency weight at (0,1)"},
		{"NaN", "0,NaN\n1,0\n", "line 1 column 2"},
		{"+Inf", "0,1\nInf,0\n", "line 2 column 1"},
		{"-Inf", "0,-Inf\n1,0\n", "line 1 column 2"},
		{"overflowing average", "0,1,1e308\n1,0,1\n1.7e308,1,0\n", "(0,2) and (2,0) average to +Inf"},
	}
	for _, tc := range cases {
		adj, err := ReadAdjacencyCSV(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, error %v; want an error naming %q", tc.name, adj, err, tc.want)
		}
	}
}

// TestReadAdjacencyCSVNotSquare: a non-square table is rejected before the
// matrix is sized, so a column of n values does not allocate n×n.
func TestReadAdjacencyCSVNotSquare(t *testing.T) {
	in := strings.Repeat("0\n", 4000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	adj, err := ReadAdjacencyCSV(strings.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "adjacency row 1 has 1 columns, want 4000") {
		t.Fatalf("got %v, error %v; want the non-square table rejected", adj, err)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 8<<20 {
		t.Fatalf("rejecting an 8 KB table allocated %d bytes", b)
	}
}

func TestFromCSVValidation(t *testing.T) {
	series := "1,2,3\n" + strings.Repeat("4,5,6\n", 30)
	adj2 := "0,1\n1,0\n"
	if _, err := FromCSV(strings.NewReader(series), strings.NewReader(adj2), CSVSpec{F: 2}); err == nil {
		t.Fatal("expected error: 3 columns not divisible by F=2")
	}
	if _, err := FromCSV(strings.NewReader(series), strings.NewReader(adj2), CSVSpec{}); err == nil {
		t.Fatal("expected error: adjacency 2x2 for 3 nodes")
	}
}

func TestFromCSVNormalizes(t *testing.T) {
	var series strings.Builder
	for i := 0; i < 40; i++ {
		series.WriteString("0,100\n10,200\n")
	}
	adj := "0,1\n1,0\n"
	d, err := FromCSV(strings.NewReader(series.String()), strings.NewReader(adj),
		CSVSpec{History: 4, Horizon: 1})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := d.X[0], d.X[0]
	for _, v := range d.X {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo != -0.8 || hi != 0.8 {
		t.Fatalf("normalization range [%g, %g]", lo, hi)
	}
}

func TestFromCSVTrainableEndToEnd(t *testing.T) {
	// A CSV-ingested dataset must flow through windowing like a generated
	// one.
	orig := Generate("no2", Config{N: 6, T: 120})
	var series, adj bytes.Buffer
	if err := orig.WriteSeriesCSV(&series); err != nil {
		t.Fatal(err)
	}
	if err := orig.WriteAdjacencyCSV(&adj); err != nil {
		t.Fatal(err)
	}
	d, err := FromCSV(&series, &adj, CSVSpec{History: 4, Horizon: 1, Raw: true})
	if err != nil {
		t.Fatal(err)
	}
	trainW, testW := d.Split()
	if len(trainW) == 0 || len(testW) == 0 {
		t.Fatal("split degenerate")
	}
	if len(d.UnknownIndices()) != d.N {
		t.Fatalf("unknowns = %d", len(d.UnknownIndices()))
	}
}

// FuzzReadSeriesCSV feeds arbitrary text to ReadSeriesCSV and to
// ReadAdjacencyCSV. Neither may panic. An accepted series must be
// rectangular and finite, and must survive FormatFloat('g', -1) →
// encoding/csv → ReadSeriesCSV bit for bit. An accepted adjacency must be
// square, finite and non-negative, symmetric, with a zero diagonal.
func FuzzReadSeriesCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		if rows, err := ReadSeriesCSV(strings.NewReader(text), CSVSpec{}); err == nil {
			var buf bytes.Buffer
			w := csv.NewWriter(&buf)
			for i, row := range rows {
				if len(row) != len(rows[0]) {
					t.Fatalf("row %d has %d columns, row 0 has %d", i, len(row), len(rows[0]))
				}
				rec := make([]string, len(row))
				for j, v := range row {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("series value (%d,%d) = %v is not finite", i, j, v)
					}
					rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
				}
				if err := w.Write(rec); err != nil {
					t.Fatal(err)
				}
			}
			w.Flush()
			back, err := ReadSeriesCSV(bytes.NewReader(buf.Bytes()), CSVSpec{})
			if err != nil {
				t.Fatalf("written series does not read back: %v\n%s", err, buf.String())
			}
			if len(back) != len(rows) {
				t.Fatalf("round trip read %d rows, wrote %d:\n%s", len(back), len(rows), buf.String())
			}
			for i, row := range rows {
				if len(back[i]) != len(row) {
					t.Fatalf("round trip read %d columns in row %d, wrote %d:\n%s", len(back[i]), i, len(row), buf.String())
				}
				for j, v := range row {
					if math.Float64bits(back[i][j]) != math.Float64bits(v) {
						t.Fatalf("round trip changed value (%d,%d) %v:\n%s", i, j, v, buf.String())
					}
				}
			}
		}
		adj, err := ReadAdjacencyCSV(strings.NewReader(text))
		if err != nil {
			return
		}
		if adj.Rows != adj.Cols {
			t.Fatalf("adjacency is %dx%d", adj.Rows, adj.Cols)
		}
		for i := 0; i < adj.Rows; i++ {
			if v := adj.At(i, i); v != 0 {
				t.Fatalf("adjacency diagonal (%d,%d) = %v", i, i, v)
			}
			for j := 0; j < adj.Cols; j++ {
				v := adj.At(i, j)
				if !(v >= 0) || math.IsInf(v, 0) {
					t.Fatalf("adjacency weight (%d,%d) = %v: want finite and non-negative", i, j, v)
				}
				if math.Float64bits(adj.At(j, i)) != math.Float64bits(v) {
					t.Fatalf("adjacency (%d,%d) = %v but (%d,%d) = %v", i, j, v, j, i, adj.At(j, i))
				}
			}
		}
	})
}
