package datasets

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"dsgl/internal/mat"
)

// CSVSpec describes how to interpret externally supplied data, so the
// reproduction can run on real datasets when they are available.
type CSVSpec struct {
	// Name labels the dataset in reports.
	Name string
	// F is the number of features per node (default 1). Series columns
	// must be grouped node-major: n0f0, n0f1, ..., n1f0, ...
	F int
	// History / Horizon define the prediction window (defaults 6 / 2).
	History, Horizon int
	// PredictFeature selects the unknown feature in horizon steps
	// (-1 = all, the default for F == 1; 0 is typical for F > 1).
	PredictFeature int
	// TrainFrac splits windows by time (default 0.7).
	TrainFrac float64
	// Normalize rescales each feature channel into [-0.8, 0.8] (default true
	// via the Raw flag being false). Set Raw when the data is already
	// scaled for the voltage rails.
	Raw bool
}

// ReadSeriesCSV parses a node series: one row per timestep, N*F value
// columns (node-major). The header row is optional; non-numeric first rows
// are skipped as headers. NaN and ±Inf tokens, which strconv.ParseFloat
// accepts, are rejected with their line and column.
func ReadSeriesCSV(r io.Reader, spec CSVSpec) ([][]float64, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	var rows [][]float64
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("datasets: csv line %d: %w", line+1, err)
		}
		line++
		vals := make([]float64, len(rec))
		numeric := true
		for i, f := range rec {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				numeric = false
				break
			}
			vals[i] = v
		}
		if !numeric {
			if line == 1 {
				continue // header
			}
			return nil, fmt.Errorf("datasets: csv line %d: non-numeric value", line)
		}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("datasets: csv line %d column %d: value %q is not finite", line, i+1, rec[i])
			}
		}
		rows = append(rows, vals)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("datasets: csv contains no data rows")
	}
	width := len(rows[0])
	for i, row := range rows {
		if len(row) != width {
			return nil, fmt.Errorf("datasets: csv row %d has %d columns, want %d", i+1, len(row), width)
		}
	}
	return rows, nil
}

// ReadAdjacencyCSV parses an N x N adjacency matrix (numeric rows only, no
// header). The result is symmetrized by averaging, with a zero diagonal; a
// pair of weights whose average overflows is rejected.
func ReadAdjacencyCSV(r io.Reader) (*mat.Dense, error) {
	rows, err := ReadSeriesCSV(r, CSVSpec{})
	if err != nil {
		return nil, err
	}
	// Every row has the first row's width, so the matrix is sized only
	// once the input holds all n×n of its values.
	n := len(rows)
	if len(rows[0]) != n {
		return nil, fmt.Errorf("datasets: adjacency row 1 has %d columns, want %d", len(rows[0]), n)
	}
	adj := mat.NewDense(n, n)
	for i, row := range rows {
		for j, v := range row {
			if v < 0 {
				return nil, fmt.Errorf("datasets: negative adjacency weight at (%d,%d)", i, j)
			}
			adj.Set(i, j, v)
		}
	}
	for i := 0; i < n; i++ {
		adj.Set(i, i, 0)
	}
	adj.Symmetrize()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if v := adj.At(i, j); math.IsInf(v, 0) {
				return nil, fmt.Errorf("datasets: adjacency weights at (%d,%d) and (%d,%d) average to %g, not finite", i, j, j, i, v)
			}
		}
	}
	return adj, nil
}

// FromCSV assembles a Dataset from a series table and an adjacency matrix.
func FromCSV(series, adjacency io.Reader, spec CSVSpec) (*Dataset, error) {
	if spec.Name == "" {
		spec.Name = "csv"
	}
	if spec.F == 0 {
		spec.F = 1
	}
	if spec.History == 0 {
		spec.History = 6
	}
	if spec.Horizon == 0 {
		spec.Horizon = 2
	}
	if spec.TrainFrac == 0 {
		spec.TrainFrac = 0.7
	}
	if spec.PredictFeature == 0 && spec.F == 1 {
		spec.PredictFeature = -1
	}
	rows, err := ReadSeriesCSV(series, spec)
	if err != nil {
		return nil, err
	}
	adj, err := ReadAdjacencyCSV(adjacency)
	if err != nil {
		return nil, err
	}
	width := len(rows[0])
	if width%spec.F != 0 {
		return nil, fmt.Errorf("datasets: %d series columns not divisible by F=%d", width, spec.F)
	}
	n := width / spec.F
	if adj.Rows != n {
		return nil, fmt.Errorf("datasets: adjacency is %dx%d but series has %d nodes", adj.Rows, adj.Cols, n)
	}
	d := &Dataset{
		Name:           spec.Name,
		N:              n,
		F:              spec.F,
		T:              len(rows),
		Adj:            adj,
		Community:      make([]int, n),
		X:              make([]float64, len(rows)*width),
		History:        spec.History,
		Horizon:        spec.Horizon,
		PredictFeature: spec.PredictFeature,
		TrainFrac:      spec.TrainFrac,
	}
	for t, row := range rows {
		copy(d.X[t*width:(t+1)*width], row)
	}
	if !spec.Raw {
		d.normalize()
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// WriteSeriesCSV emits the dataset's series in the format ReadSeriesCSV
// accepts (with a header row naming each column nK_fK).
func (d *Dataset) WriteSeriesCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, d.N*d.F)
	for n := 0; n < d.N; n++ {
		for f := 0; f < d.F; f++ {
			header[n*d.F+f] = fmt.Sprintf("n%d_f%d", n, f)
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, d.N*d.F)
	for t := 0; t < d.T; t++ {
		for k := 0; k < d.N*d.F; k++ {
			row[k] = strconv.FormatFloat(d.X[t*d.N*d.F+k], 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteAdjacencyCSV emits the adjacency matrix in the format
// ReadAdjacencyCSV accepts.
func (d *Dataset) WriteAdjacencyCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	row := make([]string, d.N)
	for i := 0; i < d.N; i++ {
		for j := 0; j < d.N; j++ {
			row[j] = strconv.FormatFloat(d.Adj.At(i, j), 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
