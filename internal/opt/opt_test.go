package opt

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

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
	// Comments, blank lines, and duplicate-edge summing are accepted.
	g, err := ParseGset("ok", strings.NewReader("# comment\n\n3 2\n1 2 1\n% other\n2 3 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.Edges != 2 || g.W.At(1, 2) != 2 {
		t.Fatalf("parsed instance wrong: %+v", g)
	}
}

// FuzzParseGset feeds arbitrary text to ParseGset. It must never panic,
// and any instance it returns must have a finite, symmetric, zero-diagonal
// W that survives WriteGset → ParseGset bit for bit.
func FuzzParseGset(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		g, err := ParseGset("fuzz", strings.NewReader(text))
		if err != nil {
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
		g2, err := ParseGset("round-trip", &buf)
		if err != nil {
			t.Fatalf("written instance does not parse: %v\n%s", err, text2)
		}
		if g2.N != g.N || g2.Edges != g.Edges || !slices.Equal(g2.W.RowPtr, w.RowPtr) || !slices.Equal(g2.W.ColIdx, w.ColIdx) {
			t.Fatalf("round trip changed the structure:\n%s", text2)
		}
		for p, v := range w.Val {
			if math.Float64bits(g2.W.Val[p]) != math.Float64bits(v) {
				t.Fatalf("round trip changed a weight: %v became %v", v, g2.W.Val[p])
			}
		}
	})
}

// TestQUBOToIsingExact: Value(bits) == Energy(spins) + const for every
// assignment of a small random asymmetric QUBO.
func TestQUBOToIsingExact(t *testing.T) {
	qb := newTestQUBO(t)
	m, constant, err := qb.ToIsing()
	if err != nil {
		t.Fatal(err)
	}
	n := qb.N
	s := make([]int8, n)
	for bits := 0; bits < 1<<uint(n); bits++ {
		for i := 0; i < n; i++ {
			if bits&(1<<uint(i)) != 0 {
				s[i] = 1
			} else {
				s[i] = -1
			}
		}
		want := qb.Value(SpinsToBits(s))
		if got := m.Energy(s) + constant; math.Abs(got-want) > 1e-9 {
			t.Fatalf("bits %d: E+const = %g, QUBO value %g", bits, got, want)
		}
	}
}

// newTestQUBO constructs a deterministic asymmetric QUBO with diagonal
// terms — exercises every term of the conversion.
func newTestQUBO(t *testing.T) *QUBO {
	t.Helper()
	const n = 6
	b := mat.NewBuilder(n, n)
	v := 0.3
	for i := 0; i < n; i++ {
		b.Add(i, i, v)
		v = -v * 1.1
		for j := 0; j < n; j++ {
			if j != i && (i+2*j)%3 == 0 {
				b.Add(i, j, v+float64(i-j)*0.17)
			}
		}
	}
	qb, err := NewQUBO(b.Build(), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	return qb
}

// TestGraphColoringProper: a triangle is 3-colorable but not 2-colorable;
// the QUBO optimum (via exhaustive Ising ground state) must be exactly the
// penalty floor in each case.
func TestGraphColoringProper(t *testing.T) {
	tri := buildInstance("triangle", 3, map[edgeKey]float64{
		{0, 1}: 1, {1, 2}: 1, {0, 2}: 1,
	})
	// k=3: proper coloring exists, optimum value 0.
	q3, err := GraphColoring(tri, 3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	m3, c3, err := q3.ToIsing()
	if err != nil {
		t.Fatal(err)
	}
	_, e3, err := m3.GroundState()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e3+c3) > 1e-9 {
		t.Errorf("3-coloring optimum %g, want 0", e3+c3)
	}
	// k=2: at least one conflict edge is unavoidable, optimum value b=2.
	q2, err := GraphColoring(tri, 2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	m2, c2, err := q2.ToIsing()
	if err != nil {
		t.Fatal(err)
	}
	_, e2, err := m2.GroundState()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e2+c2-2) > 1e-9 {
		t.Errorf("2-coloring optimum %g, want 2 (one conflict)", e2+c2)
	}
	if _, err := GraphColoring(tri, 0, 1, 1); err == nil {
		t.Error("k < 1 must error")
	}
	if _, err := GraphColoring(tri, 2, 0, 1); err == nil {
		t.Error("non-positive penalty must error")
	}
}

// TestPartitionBalancedCut: the partition encoding's exhaustive optimum
// must match the brute-force minimum of cut + alpha*imbalance².
func TestPartitionBalancedCut(t *testing.T) {
	g, err := RandomGraph(8, 3, true, 15)
	if err != nil {
		t.Fatal(err)
	}
	const alpha = 0.7
	m, constant, err := Partition(g, alpha)
	if err != nil {
		t.Fatal(err)
	}
	_, e, err := m.GroundState()
	if err != nil {
		t.Fatal(err)
	}
	want := math.Inf(1)
	tmp := make([]int8, g.N)
	for bits := 0; bits < 1<<uint(g.N); bits++ {
		sum := 0
		for i := 0; i < g.N; i++ {
			if bits&(1<<uint(i)) != 0 {
				tmp[i] = 1
			} else {
				tmp[i] = -1
			}
			sum += int(tmp[i])
		}
		obj := g.CutValue(tmp) + alpha*float64(sum*sum)
		if obj < want {
			want = obj
		}
	}
	if got := e + constant; math.Abs(got-want) > 1e-9 {
		t.Fatalf("partition optimum %g, brute force %g", got, want)
	}
	if _, _, err := Partition(g, 0); err == nil {
		t.Error("alpha <= 0 must error")
	}
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
	run, err := engine.NewOpt(s).Solve(engine.GeometricSchedule(150, 2, 0.02), 4, 2)
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
