package opt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dsgl/internal/alloctest"
	"dsgl/internal/engine"
	"dsgl/internal/ising"
	"dsgl/internal/mat"
)

func TestRandomGraphDeterministicAndSymmetric(t *testing.T) {
	a, err := RandomGraph(40, 4, true, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomGraph(40, 4, true, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Edges != b.Edges || a.W.NNZ() != b.W.NNZ() {
		t.Fatal("same seed must generate the same graph")
	}
	for i := 0; i < a.N; i++ {
		for p := a.W.RowPtr[i]; p < a.W.RowPtr[i+1]; p++ {
			j := a.W.ColIdx[p]
			if j == i {
				t.Fatalf("self-loop at %d", i)
			}
			if a.W.At(j, i) != a.W.Val[p] {
				t.Fatalf("asymmetric adjacency at (%d,%d)", i, j)
			}
			if b.W.At(i, j) != a.W.Val[p] {
				t.Fatalf("weight differs across same-seed generations at (%d,%d)", i, j)
			}
		}
	}
	c, err := RandomGraph(40, 4, true, 10)
	if err != nil {
		t.Fatal(err)
	}
	if c.W.NNZ() == a.W.NNZ() {
		same := true
		for p := range a.W.Val {
			if a.W.Val[p] != c.W.Val[p] || a.W.ColIdx[p] != c.W.ColIdx[p] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds generated identical graphs")
		}
	}
}

func TestRandomGraphValidation(t *testing.T) {
	if _, err := RandomGraph(1, 1, false, 0); err == nil {
		t.Error("n < 2 must error")
	}
	if _, err := RandomGraph(5, 0, false, 0); err == nil {
		t.Error("degree < 1 must error")
	}
	if _, err := RandomGraph(5, 5, false, 0); err == nil {
		t.Error("degree >= n must error")
	}
}

func TestTorusStructure(t *testing.T) {
	g, err := Torus(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 20 {
		t.Fatalf("N = %d, want 20", g.N)
	}
	// A torus is 4-regular: 2 edges per node.
	if g.Edges != 2*g.N {
		t.Fatalf("Edges = %d, want %d", g.Edges, 2*g.N)
	}
	for i := 0; i < g.N; i++ {
		if g.W.RowNNZ(i) != 4 {
			t.Fatalf("node %d has degree %d, want 4", i, g.W.RowNNZ(i))
		}
	}
	if _, err := Torus(1, 5); err == nil {
		t.Error("degenerate torus must error")
	}
}

func TestCutValueAndTotalWeight(t *testing.T) {
	g := buildInstance("tri", 3, map[edgeKey]float64{
		{0, 1}: 2, {1, 2}: 3, {0, 2}: 5,
	})
	if tw := g.TotalWeight(); tw != 10 {
		t.Fatalf("TotalWeight = %g, want 10", tw)
	}
	if c := g.CutValue([]int8{1, -1, 1}); c != 5 {
		t.Fatalf("cut = %g, want 5", c)
	}
	if c := g.CutValue([]int8{1, 1, 1}); c != 0 {
		t.Fatalf("uniform cut = %g, want 0", c)
	}
}

// TestToIsingCutEnergyIdentity: cut(s) == (TotalWeight - Energy(s)) / 2 for
// every spin assignment on a small instance.
func TestToIsingCutEnergyIdentity(t *testing.T) {
	g, err := RandomGraph(10, 3, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := g.ToIsing()
	if err != nil {
		t.Fatal(err)
	}
	s := make([]int8, g.N)
	for bits := 0; bits < 1<<uint(g.N); bits += 37 {
		for i := 0; i < g.N; i++ {
			if bits&(1<<uint(i)) != 0 {
				s[i] = 1
			} else {
				s[i] = -1
			}
		}
		cut := g.CutValue(s)
		if got := g.CutFromEnergy(m.Energy(s)); math.Abs(got-cut) > 1e-9 {
			t.Fatalf("bits %d: CutFromEnergy %g, direct cut %g", bits, got, cut)
		}
	}
}

// TestGroundStateIsMaxCut: solving the lowered model exhaustively must find
// the brute-force max cut.
func TestGroundStateIsMaxCut(t *testing.T) {
	g, err := RandomGraph(9, 3, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := g.ToIsing()
	if err != nil {
		t.Fatal(err)
	}
	s, e, err := m.GroundState()
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	tmp := make([]int8, g.N)
	for bits := 0; bits < 1<<uint(g.N); bits++ {
		for i := 0; i < g.N; i++ {
			if bits&(1<<uint(i)) != 0 {
				tmp[i] = 1
			} else {
				tmp[i] = -1
			}
		}
		if c := g.CutValue(tmp); c > best {
			best = c
		}
	}
	if got := g.CutFromEnergy(e); math.Abs(got-best) > 1e-9 {
		t.Fatalf("ground-state cut %g != brute-force max cut %g", got, best)
	}
	if math.Abs(g.CutValue(s)-best) > 1e-9 {
		t.Fatalf("ground-state spins cut %g != max cut %g", g.CutValue(s), best)
	}
}

func TestGsetRoundTrip(t *testing.T) {
	g, err := RandomGraph(30, 4, true, 6)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteGset(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ParseGset("round-trip", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N != g.N || g2.Edges != g.Edges {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", g2.N, g2.Edges, g.N, g.Edges)
	}
	for i := 0; i < g.N; i++ {
		for p := g.W.RowPtr[i]; p < g.W.RowPtr[i+1]; p++ {
			j := g.W.ColIdx[p]
			if g2.W.At(i, j) != g.W.Val[p] {
				t.Fatalf("weight (%d,%d) changed: %g vs %g", i, j, g2.W.At(i, j), g.W.Val[p])
			}
		}
	}
}

func TestParseGsetErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"empty", ""},
		{"bad header", "x y\n"},
		{"short edge", "2 1\n1 2\n"},
		{"out of range", "2 1\n1 3 1\n"},
		{"self loop", "2 1\n1 1 1\n"},
		{"edge count mismatch", "3 2\n1 2 1\n"},
	}
	for _, c := range cases {
		if _, err := ParseGset(c.name, strings.NewReader(c.text)); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
	// Non-finite weights (strconv.ParseFloat accepts the tokens) and
	// headers declaring more nodes than the bound must name their line;
	// the header check runs before anything is sized from it.
	for _, c := range []struct{ name, text, want string }{
		{"NaN weight", "2 1\n1 2 NaN\n", "line 2"},
		{"+Inf weight", "3 2\n1 2 1\n2 3 +Inf\n", "line 3"},
		{"-Inf weight", "# c\n2 1\n1 2 -inf\n", "line 3"},
		{"huge header", "2000000000 0\n", "line 1"},
		{"overflowing duplicate edge", "2 1\n1 2 1e308\n2 1 1e308\n", "not finite"},
		{"header over bound", fmt.Sprintf("%d 0\n", maxGsetNodes+1), "line 1"},
	} {
		g, err := ParseGset(c.name, strings.NewReader(c.text))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: instance %v, error %v; want an error naming %q", c.name, g, err, c.want)
		}
	}
	if _, err := ParseGset("at bound", strings.NewReader(fmt.Sprintf("%d 1\n1 2 1\n", maxGsetNodes))); err != nil {
		t.Errorf("header at the bound: %v", err)
	}
	// A header's edge count reserves room for the edges, but on its own
	// word no more than about 1 MB, whether or not the reader reports its
	// length. The bound is 3 MB because a -race build also allocates the
	// temporary that slices.Grow appends, about 1 MB more.
	const huge = "2 1000000000000\n1 2 1\n"
	for _, rd := range []io.Reader{strings.NewReader(huge), struct{ io.Reader }{strings.NewReader(huge)}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ParseGset("huge edge count", rd)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "header declares 1000000000000 edges") {
			t.Errorf("huge edge count: error %v", err)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 3<<20 {
			t.Errorf("huge edge count: the parse allocated %d bytes, want at most 3 MB", b)
		}
	}
	// Comments, blank lines, and duplicate-edge summing are accepted.
	g, err := ParseGset("ok", strings.NewReader("# comment\n\n3 2\n1 2 1\n% other\n2 3 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.Edges != 2 || g.W.At(1, 2) != 2 {
		t.Fatalf("parsed instance wrong: %+v", g)
	}
}

// TestParseGsetAllocations: a well-formed line allocates nothing, so the
// 800-node benchmark instance and one ten times its size parse with the
// same number of allocations, weighted or not.
func TestParseGsetAllocations(t *testing.T) {
	alloctest.SkipUnderRace(t)
	for _, weighted := range []bool{false, true} {
		var counts [2]uint64
		for k, n := range []int{800, 8000} {
			g, err := RandomGraph(n, 6, weighted, 1)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := g.WriteGset(&buf); err != nil {
				t.Fatal(err)
			}
			text := buf.Bytes()
			counts[k] = alloctest.Count(1, func() {
				if _, err := ParseGset("alloc", bytes.NewReader(text)); err != nil {
					t.Fatal(err)
				}
			})
		}
		if counts[0] != counts[1] {
			t.Errorf("weighted %v: %d allocations to parse 800 nodes, %d to parse 8000; want the same count",
				weighted, counts[0], counts[1])
		}
	}
}

// FuzzParseGset feeds arbitrary text to ParseGset and to parseGsetReference,
// the line-by-line string parser it replaced. Both must reject with the
// same error or accept the same instance bit for bit. ParseGset must never
// panic, and any instance it returns must have a finite, symmetric,
// zero-diagonal W that survives WriteGset → ParseGset bit for bit.
func FuzzParseGset(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		g := diffReference(t, text)
		if g == nil {
			return
		}
		w := g.W
		for i := 0; i < g.N; i++ {
			for p := w.RowPtr[i]; p < w.RowPtr[i+1]; p++ {
				j, v := w.ColIdx[p], w.Val[p]
				if i == j || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("W[%d][%d] = %v: want a finite off-diagonal weight", i, j, v)
				}
				lo, hi := w.RowPtr[j], w.RowPtr[j+1]
				q := lo + sort.SearchInts(w.ColIdx[lo:hi], i)
				if q == hi || w.ColIdx[q] != i || math.Float64bits(w.Val[q]) != math.Float64bits(v) {
					t.Fatalf("W[%d][%d] = %v has no bit-identical W[%d][%d]", i, j, v, j, i)
				}
			}
		}
		var buf bytes.Buffer
		if err := g.WriteGset(&buf); err != nil {
			t.Fatal(err)
		}
		text2 := buf.String()
		// A reader that hides its length: the header alone sizes the
		// reservation.
		g2, err := ParseGset("round-trip", struct{ io.Reader }{&buf})
		if err != nil {
			t.Fatalf("written instance does not parse: %v\n%s", err, text2)
		}
		if !sameInstance(g2, g) {
			t.Fatalf("round trip changed the instance:\n%s", text2)
		}
	})
}

// TestParseGsetLongLine: lines at bufio.Scanner's 1 MiB limit give both
// parsers the same outcome. They are not FuzzParseGset seeds because the
// fuzzer would spend its time minimizing inputs mutated from seeds that
// size.
func TestParseGsetLongLine(t *testing.T) {
	for _, c := range []struct {
		name, text string
		accept     bool
	}{
		{"comment over the limit", "#" + strings.Repeat("x", 1<<20) + "\n2 1\n1 2 1\n", false},
		{"weight over the limit", "2 1\n1 2 " + strings.Repeat("1", 1<<20) + "\n", false},
		{"weight under the limit", "2 1\n1 2 " + strings.Repeat("0", 1<<20-16) + "1\n", true},
	} {
		if g := diffReference(t, c.text); (g != nil) != c.accept {
			t.Errorf("%s: accepted %v, want %v", c.name, g != nil, c.accept)
		}
	}
}

// diffReference parses text with ParseGset and parseGsetReference. Both
// must reject it with the same error, and then it returns nil, or accept
// the same instance bit for bit, which it returns.
func diffReference(t *testing.T, text string) *Instance {
	t.Helper()
	g, err := ParseGset("fuzz", strings.NewReader(text))
	ref, refErr := parseGsetReference("fuzz", strings.NewReader(text))
	if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
		t.Fatalf("ParseGset error %v, reference error %v", err, refErr)
	}
	if err == nil && !sameInstance(g, ref) {
		t.Fatalf("ParseGset and the reference disagree:\n got  %d nodes, %d edges, %+v\n want %d nodes, %d edges, %+v",
			g.N, g.Edges, g.W, ref.N, ref.Edges, ref.W)
	}
	return g
}

// sameInstance compares node and edge counts, W's structure exactly, and
// W's values by IEEE-754 bits.
func sameInstance(a, b *Instance) bool {
	if a.N != b.N || a.Edges != b.Edges || !slices.Equal(a.W.RowPtr, b.W.RowPtr) || !slices.Equal(a.W.ColIdx, b.W.ColIdx) ||
		len(a.W.Val) != len(b.W.Val) {
		return false
	}
	for p, v := range a.W.Val {
		if math.Float64bits(b.W.Val[p]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// parseGsetReference is the string-per-line ParseGset that the in-place
// parser replaced, kept verbatim as FuzzParseGset's reference: every
// accept or reject decision, error message and line number must match it.
func parseGsetReference(name string, rd io.Reader) (*Instance, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(nil, 1<<20)
	var n, m int
	var b *mat.Builder
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if b == nil {
			if len(fields) != 2 {
				return nil, fmt.Errorf("opt: %s line %d: header wants \"n m\", got %q", name, line, text)
			}
			var err1, err2 error
			n, err1 = strconv.Atoi(fields[0])
			m, err2 = strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil || n < 1 || m < 0 {
				return nil, fmt.Errorf("opt: %s line %d: bad header %q", name, line, text)
			}
			if n > maxGsetNodes {
				return nil, fmt.Errorf("opt: %s line %d: header declares %d nodes, limit %d", name, line, n, maxGsetNodes)
			}
			b = mat.NewBuilder(n, n)
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("opt: %s line %d: edge wants \"i j w\", got %q", name, line, text)
		}
		i, err1 := strconv.Atoi(fields[0])
		j, err2 := strconv.Atoi(fields[1])
		w, err3 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("opt: %s line %d: bad edge %q", name, line, text)
		}
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("opt: %s line %d: edge weight %q is not finite", name, line, fields[2])
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

// TestInstanceSolvesThroughEngine: the full lowering — instance → Ising →
// Solver → engine multi-restart — beats a trivial cut on a torus.
func TestInstanceSolvesThroughEngine(t *testing.T) {
	g, err := Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	m, err := g.ToIsing()
	if err != nil {
		t.Fatal(err)
	}
	s, err := ising.NewSolver(m, ising.MetropolisDynamics, 5)
	if err != nil {
		t.Fatal(err)
	}
	run, err := engine.NewOpt(s).SolveFrom(engine.GeometricSchedule(150, 2, 0.02), s.BaseSeed(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cut := g.CutValue(run.Best.Spins)
	if got := g.CutFromEnergy(run.Best.Energy); math.Abs(got-cut) > 1e-9 {
		t.Fatalf("CutFromEnergy %g != direct cut %g", got, cut)
	}
	// A 2D torus is bipartite-ish under even dimensions: every node has 4
	// neighbours, and the optimum cut equals the edge count. Require 90%.
	if cut < 0.9*float64(g.Edges) {
		t.Errorf("torus cut %g below 90%% of %d edges", cut, g.Edges)
	}
}
