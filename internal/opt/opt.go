// Package opt is the combinatorial-optimization workload layer: Gset-style
// MaxCut instances, their generators and parser, and the exact lowering of
// MaxCut onto the Ising solver backends. The package owns problem
// representation and conversion arithmetic; the annealing itself runs
// through internal/ising's engine.OptBackend.
package opt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"dsgl/internal/ising"
	"dsgl/internal/mat"
	"dsgl/internal/rng"
)

// Instance is an undirected weighted graph in the Gset tradition: the
// MaxCut workload format. The adjacency is stored symmetrized in CSR (both
// triangles), zero diagonal.
type Instance struct {
	Name  string
	N     int
	Edges int
	W     *mat.CSR
}

// edgeKey identifies an undirected edge with i < j.
type edgeKey struct{ i, j int }

// buildInstance assembles a symmetric CSR from an undirected edge-weight
// map (keys i < j, one weight per edge). The Builder orders the entries,
// so the map's iteration order does not matter.
func buildInstance(name string, n int, edges map[edgeKey]float64) *Instance {
	b := mat.NewBuilder(n, n)
	for k, w := range edges {
		b.Add(k.i, k.j, w)
		b.Add(k.j, k.i, w)
	}
	return &Instance{Name: name, N: n, Edges: len(edges), W: b.Build()}
}

// CutValue returns the weight of the cut induced by spin vector s: the sum
// of edge weights whose endpoints fall in opposite partitions. O(nnz).
func (g *Instance) CutValue(s []int8) float64 {
	var cut float64
	for i := 0; i < g.N; i++ {
		for p := g.W.RowPtr[i]; p < g.W.RowPtr[i+1]; p++ {
			if j := g.W.ColIdx[p]; j > i && s[i] != s[j] {
				cut += g.W.Val[p]
			}
		}
	}
	return cut
}

// TotalWeight sums all edge weights once per undirected edge.
func (g *Instance) TotalWeight() float64 {
	var tw float64
	for i := 0; i < g.N; i++ {
		for p := g.W.RowPtr[i]; p < g.W.RowPtr[i+1]; p++ {
			if g.W.ColIdx[p] > i {
				tw += g.W.Val[p]
			}
		}
	}
	return tw
}

// ToIsing lowers MaxCut to the Ising ground-state problem: with coupling
// W_ising = -W_adj and no field, H(s) = ½ Σ_{(i,j)∈E} w_ij s_i s_j (up to
// the constant), and cut(s) = (TotalWeight - H(s)) / 2 — minimizing energy
// maximizes the cut. Use CutFromEnergy to map a solver energy back.
func (g *Instance) ToIsing() (*ising.Model, error) {
	w := &mat.CSR{
		Rows:   g.W.Rows,
		Cols:   g.W.Cols,
		RowPtr: g.W.RowPtr,
		ColIdx: g.W.ColIdx,
		Val:    make([]float64, len(g.W.Val)),
	}
	for p, v := range g.W.Val {
		w.Val[p] = -v
	}
	return ising.NewModelCSR(w, make([]float64, g.N))
}

// CutFromEnergy maps an Ising energy of the ToIsing model back to the cut
// value of the same spin vector.
func (g *Instance) CutFromEnergy(e float64) float64 {
	return (g.TotalWeight() - e) / 2
}

// RandomGraph generates a seeded random regular-ish graph: n nodes, each
// wired to `degree` distinct random partners (duplicate picks are re-drawn,
// so the realized degree is at least `degree` per node counting both
// directions). Unweighted graphs carry weight 1 per edge; weighted ones
// draw uniformly from (0, 1]. Deterministic in (n, degree, weighted, seed).
func RandomGraph(n, degree int, weighted bool, seed uint64) (*Instance, error) {
	if n < 2 {
		return nil, fmt.Errorf("opt: RandomGraph needs n >= 2, got %d", n)
	}
	if degree < 1 || degree >= n {
		return nil, fmt.Errorf("opt: RandomGraph needs 1 <= degree < n, got %d", degree)
	}
	r := rng.New(seed)
	edges := make(map[edgeKey]float64, n*degree/2)
	for i := 0; i < n; i++ {
		for d := 0; d < degree; d++ {
			j := r.Intn(n - 1)
			if j >= i {
				j++
			}
			k := edgeKey{i, j}
			if j < i {
				k = edgeKey{j, i}
			}
			if _, dup := edges[k]; dup {
				continue
			}
			w := 1.0
			if weighted {
				w = 1 - r.Float64()
			}
			edges[k] = w
		}
	}
	name := fmt.Sprintf("rand-n%d-d%d-s%d", n, degree, seed)
	if weighted {
		name += "-w"
	}
	return buildInstance(name, n, edges), nil
}

// Torus generates the rows×cols 2D torus lattice (4-regular, unit weights)
// — the planted-structure family Gset's toroidal instances come from.
func Torus(rows, cols int) (*Instance, error) {
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("opt: Torus needs rows, cols >= 2, got %dx%d", rows, cols)
	}
	n := rows * cols
	edges := make(map[edgeKey]float64, 2*n)
	id := func(r, c int) int { return ((r+rows)%rows)*cols + (c+cols)%cols }
	add := func(a, b int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		edges[edgeKey{a, b}] = 1
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			add(id(r, c), id(r, c+1))
			add(id(r, c), id(r+1, c))
		}
	}
	return buildInstance(fmt.Sprintf("torus-%dx%d", rows, cols), n, edges), nil
}

// maxGsetNodes bounds the node count a Gset header may declare. The
// instance's CSR allocates a row pointer per node before any edge is
// checked, so an unchecked header such as "2000000000 0" would allocate
// about 16 GB. The largest instance of the Gset collection, G81, has
// 20,000 nodes.
const maxGsetNodes = 1 << 20

// gsetReserve caps the triplets (24 B each, two per edge) that a Gset
// header's edge count reserves on its own word: about 1 MB. A reader whose
// unread length is known (a *bytes.Reader, *bytes.Buffer or
// *strings.Reader) backs more, up to a third of that length: every edge
// line takes at least 6 bytes ("i j w" and its line end) and adds two
// triplets.
const gsetReserve = 1 << 20 / 24

// ParseGset reads the Gset text format: a "n m" header line, then m lines
// "i j w" with 1-indexed endpoints. Duplicate edges sum; self-loops,
// non-finite weights (a duplicate edge's sum included) and headers
// declaring more than maxGsetNodes nodes are rejected. Blank lines and
// lines starting with '#' or '%' are skipped. Fields split as
// strings.Fields splits them and numbers parse as strconv.Atoi and
// strconv.ParseFloat parse them, but each line is read in place, so a
// well-formed line allocates nothing.
func ParseGset(name string, rd io.Reader) (*Instance, error) {
	// The cases are concrete types, which the switch compares inline. An
	// assertion to an interface type calls the runtime, and that call
	// allocates a new type-assertion cache in about one call in 1024.
	reserve := gsetReserve
	switch r := rd.(type) {
	case *bytes.Reader:
		reserve = max(reserve, r.Len()/3)
	case *bytes.Buffer:
		reserve = max(reserve, r.Len()/3)
	case *strings.Reader:
		reserve = max(reserve, r.Len()/3)
	}
	sc := bufio.NewScanner(rd)
	sc.Buffer(nil, 1<<20)
	var n, m int
	var b *mat.Builder
	var f [3][]byte
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || text[0] == '#' || text[0] == '%' {
			continue
		}
		nf := fields(text, f[:])
		if b == nil {
			if nf != 2 {
				return nil, fmt.Errorf("opt: %s line %d: header wants \"n m\", got %q", name, line, text)
			}
			var err1, err2 error
			n, err1 = atoi(f[0])
			m, err2 = atoi(f[1])
			if err1 != nil || err2 != nil || n < 1 || m < 0 {
				return nil, fmt.Errorf("opt: %s line %d: bad header %q", name, line, text)
			}
			if n > maxGsetNodes {
				return nil, fmt.Errorf("opt: %s line %d: header declares %d nodes, limit %d", name, line, n, maxGsetNodes)
			}
			b = mat.NewBuilder(n, n)
			b.Grow(2 * min(m, reserve/2))
			continue
		}
		if nf != 3 {
			return nil, fmt.Errorf("opt: %s line %d: edge wants \"i j w\", got %q", name, line, text)
		}
		i, err1 := atoi(f[0])
		j, err2 := atoi(f[1])
		w, err3 := parseFloat(f[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("opt: %s line %d: bad edge %q", name, line, text)
		}
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("opt: %s line %d: edge weight %q is not finite", name, line, f[2])
		}
		if i < 1 || i > n || j < 1 || j > n {
			return nil, fmt.Errorf("opt: %s line %d: endpoint out of range [1,%d]", name, line, n)
		}
		if i == j {
			return nil, fmt.Errorf("opt: %s line %d: self-loop on node %d", name, line, i)
		}
		// Both orientations, so the CSR is symmetric and a repeated edge
		// sums in file order whichever way round it is written.
		b.Add(i-1, j-1, w)
		b.Add(j-1, i-1, w)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("opt: %s: %v", name, err)
	}
	if b == nil {
		return nil, fmt.Errorf("opt: %s: empty instance (no header)", name)
	}
	w := b.Build()
	// Finite weights of a repeated edge can still sum past the float range.
	for i := 0; i < n; i++ {
		for p := w.RowPtr[i]; p < w.RowPtr[i+1]; p++ {
			if v := w.Val[p]; math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("opt: %s: repeated edge %d %d sums to %g, not finite", name, i+1, w.ColIdx[p]+1, v)
			}
		}
	}
	// No self-loops, so every distinct edge is two stored entries.
	if edges := w.NNZ() / 2; edges != m {
		return nil, fmt.Errorf("opt: %s: header declares %d edges, found %d distinct", name, m, edges)
	}
	return &Instance{Name: name, N: n, Edges: m, W: w}, nil
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// fields splits s around runs of white space exactly as strings.Fields
// does, decoding UTF-8 above 0x7F (an invalid byte is one non-space rune).
// It stores the first len(out) fields in out, as subslices of s, and
// returns how many fields s has.
func fields(s []byte, out [][]byte) int {
	nf, start := 0, -1
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1
		space := r < utf8.RuneSelf && asciiSpace[r]
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(s[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			if nf < len(out) {
				out[nf] = s[start:i]
			}
			nf, start = nf+1, -1
		case !space && start < 0:
			start = i
		}
		i += size
	}
	if start >= 0 {
		if nf < len(out) {
			out[nf] = s[start:]
		}
		nf++
	}
	return nf
}

// maxFastDigits is the longest all-digit token parsed without strconv:
// 10^15 - 1 is below 2^53, so it is exact both as an int and as a float64.
const maxFastDigits = 15

// digits returns the value of a token of 1 to maxFastDigits ASCII digits,
// and false for any other token.
func digits(tok []byte) (int, bool) {
	if len(tok) == 0 || len(tok) > maxFastDigits {
		return 0, false
	}
	v := 0
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return v, true
}

// atoi is strconv.Atoi on a byte token.
func atoi(tok []byte) (int, error) {
	if v, ok := digits(tok); ok {
		return v, nil
	}
	return strconv.Atoi(string(tok))
}

// parseFloat is strconv.ParseFloat(tok, 64) on a byte token.
func parseFloat(tok []byte) (float64, error) {
	if v, ok := digits(tok); ok {
		return float64(v), nil
	}
	return strconv.ParseFloat(string(tok), 64)
}

// LoadGset reads a Gset instance from a file, named after its basename.
func LoadGset(path string) (*Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opt: %v", err)
	}
	defer f.Close()
	name := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		name = path[i+1:]
	}
	return ParseGset(name, f)
}

// WriteGset serializes the instance in the Gset text format (1-indexed,
// upper-triangle edges in row order) so generated instances round-trip
// through ParseGset.
func (g *Instance) WriteGset(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d %d\n", g.N, g.Edges)
	for i := 0; i < g.N; i++ {
		for p := g.W.RowPtr[i]; p < g.W.RowPtr[i+1]; p++ {
			if j := g.W.ColIdx[p]; j > i {
				fmt.Fprintf(bw, "%d %d %s\n", i+1, j+1, strconv.FormatFloat(g.W.Val[p], 'g', -1, 64))
			}
		}
	}
	return bw.Flush()
}
