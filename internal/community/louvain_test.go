package community

import (
	"math"
	"sort"
	"testing"

	"dsgl/internal/mat"
	"dsgl/internal/rng"
)

// plantedGraph builds a graph with k planted communities of size sz each:
// dense strong intra-links, sparse weak inter-links.
func plantedGraph(r *rng.RNG, k, sz int) (*mat.Dense, []int) {
	n := k * sz
	w := mat.NewDense(n, n)
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		truth[i] = i / sz
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var v float64
			if truth[i] == truth[j] {
				if r.Float64() < 0.8 {
					v = r.Uniform(0.5, 1)
				}
			} else if r.Float64() < 0.05 {
				v = r.Uniform(0.01, 0.1)
			}
			if v > 0 {
				w.Set(i, j, v)
				w.Set(j, i, v)
			}
		}
	}
	return w, truth
}

func TestLouvainRecoversPlantedCommunities(t *testing.T) {
	r := rng.New(42)
	w, truth := plantedGraph(r, 4, 12)
	p := Louvain(w, 10)
	if p.Num != 4 {
		t.Fatalf("found %d communities, want 4", p.Num)
	}
	// Every truth community must map to exactly one found label.
	for c := 0; c < 4; c++ {
		label := -1
		for i, tc := range truth {
			if tc != c {
				continue
			}
			if label == -1 {
				label = p.Labels[i]
			} else if p.Labels[i] != label {
				t.Fatalf("community %d split: node %d has label %d, want %d", c, i, p.Labels[i], label)
			}
		}
	}
}

func TestLouvainModularityPositive(t *testing.T) {
	r := rng.New(7)
	w, _ := plantedGraph(r, 3, 10)
	p := Louvain(w, 10)
	q := p.Modularity(w)
	if q < 0.4 {
		t.Fatalf("modularity %g too low for a strongly clustered graph", q)
	}
	// The trivial all-in-one partition has modularity 0.
	trivial := &Partition{Labels: make([]int, 30), Num: 1}
	if tq := trivial.Modularity(w); math.Abs(tq) > 1e-9 {
		t.Fatalf("trivial partition modularity %g, want 0", tq)
	}
	if q <= trivial.Modularity(w) {
		t.Fatal("Louvain must beat the trivial partition")
	}
}

func TestLouvainEmptyAndSingleton(t *testing.T) {
	p := Louvain(mat.NewDense(0, 0), 5)
	if p.Num != 0 {
		t.Fatalf("empty graph: %d communities", p.Num)
	}
	p = Louvain(mat.NewDense(1, 1), 5)
	if p.Num != 1 || p.Labels[0] != 0 {
		t.Fatalf("singleton graph: %+v", p)
	}
}

func TestLouvainDisconnectedComponents(t *testing.T) {
	// Two disconnected triangles must be two communities.
	w := mat.NewDense(6, 6)
	tri := func(a, b, c int) {
		for _, e := range [][2]int{{a, b}, {b, c}, {a, c}} {
			w.Set(e[0], e[1], 1)
			w.Set(e[1], e[0], 1)
		}
	}
	tri(0, 1, 2)
	tri(3, 4, 5)
	p := Louvain(w, 10)
	if p.Num != 2 {
		t.Fatalf("found %d communities, want 2", p.Num)
	}
	if p.Labels[0] != p.Labels[1] || p.Labels[1] != p.Labels[2] {
		t.Fatal("first triangle split")
	}
	if p.Labels[3] != p.Labels[4] || p.Labels[4] != p.Labels[5] {
		t.Fatal("second triangle split")
	}
	if p.Labels[0] == p.Labels[3] {
		t.Fatal("triangles merged")
	}
}

// TestLouvainDeterministicOnTies: on a uniform ring every node sees two
// neighbouring communities with exactly equal gain, so the pick depends on
// the order candidates are scanned. That order must be fixed — a random
// one made training's PE placement, and with it the compiled machine's
// floating-point accumulation order, differ between runs.
func TestLouvainDeterministicOnTies(t *testing.T) {
	const n = 24
	w := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		w.Set(i, (i+1)%n, 1)
		w.Set((i+1)%n, i, 1)
	}
	want := Louvain(w, 10).Labels
	for run := 0; run < 20; run++ {
		got := Louvain(w, 10).Labels
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: node %d in community %d, first run put it in %d", run, i, got[i], want[i])
			}
		}
	}
}

func TestCommunitiesPartitionNodes(t *testing.T) {
	r := rng.New(3)
	w, _ := plantedGraph(r, 3, 8)
	p := Louvain(w, 10)
	comms := p.Communities()
	total := 0
	seen := make(map[int]bool)
	for _, c := range comms {
		for _, v := range c {
			if seen[v] {
				t.Fatalf("node %d in two communities", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != 24 {
		t.Fatalf("communities cover %d nodes, want 24", total)
	}
}

func TestCouplingWeights(t *testing.T) {
	j := mat.NewDense(2, 2)
	j.Set(0, 1, -0.3)
	j.Set(1, 0, 0.5)
	w := CouplingWeights(j)
	if math.Abs(w.At(0, 1)-0.8) > 1e-12 || math.Abs(w.At(1, 0)-0.8) > 1e-12 {
		t.Fatalf("weights = %v", w.Data)
	}
	if w.At(0, 0) != 0 {
		t.Fatal("diagonal must be zero")
	}
}

func TestPruneToDensity(t *testing.T) {
	r := rng.New(5)
	n := 20
	j := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if i != k {
				j.Set(i, k, r.NormScaled(0, 1))
			}
		}
	}
	pruned := PruneToDensity(j, 0.1)
	if d := float64(pruned.NNZ(0)) / float64(n*n); d > 0.1+1e-9 {
		t.Fatalf("density %g exceeds target", d)
	}
	// Surviving entries must be among the strongest: min kept pair-mag >=
	// max dropped pair-mag.
	minKept, maxDropped := math.Inf(1), 0.0
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			mag := math.Abs(j.At(a, b)) + math.Abs(j.At(b, a))
			if pruned.At(a, b) != 0 || pruned.At(b, a) != 0 {
				if mag < minKept {
					minKept = mag
				}
			} else if mag > maxDropped {
				maxDropped = mag
			}
		}
	}
	if minKept < maxDropped {
		t.Fatalf("pruning kept weaker pair (%g) than it dropped (%g)", minKept, maxDropped)
	}
	// Pairs survive symmetrically.
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			kept1 := pruned.At(a, b) != 0 || j.At(a, b) == 0
			kept2 := pruned.At(b, a) != 0 || j.At(b, a) == 0
			if (pruned.At(a, b) != 0) != (pruned.At(b, a) != 0) && j.At(a, b) != 0 && j.At(b, a) != 0 {
				t.Fatalf("pair (%d,%d) kept asymmetrically: %v %v", a, b, kept1, kept2)
			}
		}
	}
}

func TestPruneDensityOneKeepsAll(t *testing.T) {
	j := mat.NewDense(4, 4)
	j.Set(0, 1, 1)
	j.Set(1, 0, 1)
	j.Set(2, 3, 0.5)
	j.Set(3, 2, 0.5)
	pruned := PruneToDensity(j, 1)
	if !pruned.Equal(j, 0) {
		t.Fatal("density 1 must keep everything")
	}
}

func TestPruneDensityZeroDropsAll(t *testing.T) {
	j := mat.NewDense(4, 4)
	j.Set(0, 1, 1)
	pruned := PruneToDensity(j, 0)
	if pruned.NNZ(0) != 0 {
		t.Fatal("density 0 must drop everything")
	}
}

func TestPrunePanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PruneToDensity(mat.NewDense(2, 2), 1.5)
}

func TestSupportMask(t *testing.T) {
	j := mat.NewDense(3, 3)
	j.Set(0, 1, 0.5)
	j.Set(1, 2, 1e-12)
	m := SupportMask(j, 1e-9)
	if !m.At(0, 1) || m.At(1, 2) || m.At(0, 0) {
		t.Fatal("support mask wrong")
	}
}

func TestRefineByClassSplitsMixedCommunities(t *testing.T) {
	p := &Partition{Labels: []int{0, 0, 0, 1, 1, 1}, Num: 2}
	classOf := []int{0, 1, 0, 1, 1, 0}
	out := RefineByClass(p, classOf)
	// Same refined community <=> same (community, class) pair.
	for i := range out.Labels {
		for j := range out.Labels {
			same := p.Labels[i] == p.Labels[j] && classOf[i] == classOf[j]
			if (out.Labels[i] == out.Labels[j]) != same {
				t.Fatalf("nodes %d,%d: refined labels %d,%d, same-group want %v", i, j, out.Labels[i], out.Labels[j], same)
			}
		}
	}
	if out.Num != 4 {
		t.Fatalf("Num = %d, want 4", out.Num)
	}
	// First-occurrence canonical numbering.
	if out.Labels[0] != 0 || out.Labels[1] != 1 {
		t.Fatalf("labels not first-occurrence compacted: %v", out.Labels)
	}
}

// TestRefineByClassK1Identity is the placement-layer half of the K=1
// bit-identity contract: a single class must leave the partition
// untouched label-for-label.
func TestRefineByClassK1Identity(t *testing.T) {
	p := &Partition{Labels: []int{0, 1, 1, 0, 2, 2, 1}, Num: 3}
	out := RefineByClass(p, make([]int, 7))
	if out.Num != p.Num {
		t.Fatalf("Num changed: %d -> %d", p.Num, out.Num)
	}
	for i := range p.Labels {
		if out.Labels[i] != p.Labels[i] {
			t.Fatalf("label %d changed: %d -> %d", i, p.Labels[i], out.Labels[i])
		}
	}
}

func TestRefineByClassPanics(t *testing.T) {
	p := &Partition{Labels: []int{0, 0, 1}, Num: 2}
	for name, classOf := range map[string][]int{
		"short":    {0, 1},
		"negative": {0, -1, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s class vector must panic", name)
				}
			}()
			RefineByClass(p, classOf)
		}()
	}
}

// pruneSortSlice is PruneToDensity as it was before it sized its pair
// slice to the non-zero pairs and sorted with slices.SortFunc: the
// reference TestPruneKeepsSortSliceOrder holds it to.
func pruneSortSlice(j *mat.Dense, density float64) *mat.Dense {
	n := j.Rows
	type pair struct {
		a, b int
		mag  float64
	}
	pairs := make([]pair, 0, n*(n-1)/2)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			mag := math.Abs(j.At(a, b)) + math.Abs(j.At(b, a))
			if mag > 0 {
				pairs = append(pairs, pair{a, b, mag})
			}
		}
	}
	sort.Slice(pairs, func(x, y int) bool { return pairs[x].mag > pairs[y].mag })
	budget := int(density * float64(n) * float64(n) / 2)
	if budget > len(pairs) {
		budget = len(pairs)
	}
	out := mat.NewDense(n, n)
	for _, p := range pairs[:budget] {
		out.Set(p.a, p.b, j.At(p.a, p.b))
		out.Set(p.b, p.a, j.At(p.b, p.a))
	}
	return out
}

// TestPruneKeepsSortSliceOrder: on inputs where most pairs tie in
// strength, which tied pairs survive the budget cut depends on the sort's
// permutation, so PruneToDensity must keep exactly the set the sort.Slice
// version kept. Couplings take a few quarter-step values in a few rows,
// like a trained J whose unknown rows alone are populated, over sizes from
// insertion-sort range to 20k pairs and densities that cut through ties.
func TestPruneKeepsSortSliceOrder(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 60; trial++ {
		n := 4 + int(r.Float64()*200)
		levels := 1 + int(r.Float64()*6)
		fill := 0.2 + 0.8*r.Float64()
		j := mat.NewDense(n, n)
		for a := 0; a < n; a++ {
			if r.Float64() < 0.5 {
				continue // an observed row: no couplings
			}
			for b := 0; b < n; b++ {
				if a != b && r.Float64() < fill {
					v := float64(1+int(r.Float64()*float64(levels))) / 4
					if r.Float64() < 0.5 {
						v = -v
					}
					j.Set(a, b, v)
				}
			}
		}
		for _, density := range []float64{0.01, 0.05, 0.1, 0.25} {
			got, want := PruneToDensity(j, density), pruneSortSlice(j, density)
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("trial %d (n=%d, %d levels) density %g: kept set differs from sort.Slice's at entry %d", trial, n, levels, density, i)
				}
			}
		}
	}
}
