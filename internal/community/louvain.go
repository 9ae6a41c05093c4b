// Package community implements the learning-based decomposition pipeline of
// paper Sec. IV.B: pruning the dense coupling matrix by coupling strength,
// extracting communities with the Louvain algorithm, grouping them into
// super-communities that fit the per-PE capacity, and redistributing
// sub-communities across neighboring PEs for balanced, locality-preserving
// mappings.
package community

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dsgl/internal/mat"
)

// Partition assigns a community label to each node.
type Partition struct {
	Labels []int
	// Num is the number of communities (labels are 0..Num-1, compacted).
	Num int
}

// Communities returns the node lists per community label.
func (p *Partition) Communities() [][]int {
	out := make([][]int, p.Num)
	for node, c := range p.Labels {
		out[c] = append(out[c], node)
	}
	return out
}

// Modularity evaluates Newman modularity of the partition over the weighted
// symmetric graph w.
func (p *Partition) Modularity(w *mat.Dense) float64 {
	n := w.Rows
	deg := make([]float64, n)
	var total float64 // 2m
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			deg[i] += w.At(i, j)
		}
		total += deg[i]
	}
	if total == 0 {
		return 0
	}
	var q float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if p.Labels[i] == p.Labels[j] {
				q += w.At(i, j) - deg[i]*deg[j]/total
			}
		}
	}
	return q / total
}

// compact renumbers labels to 0..k-1 and sets Num.
func (p *Partition) compact() {
	remap := make(map[int]int)
	for i, l := range p.Labels {
		if _, ok := remap[l]; !ok {
			remap[l] = len(remap)
		}
		p.Labels[i] = remap[l]
	}
	p.Num = len(remap)
}

// CouplingWeights converts a (possibly asymmetric, signed) coupling matrix
// into the symmetric non-negative weight graph used for community
// extraction: w_ij = |J_ij| + |J_ji|, zero diagonal. Coupling strength —
// the magnitude — is what determines which links matter during annealing.
func CouplingWeights(j *mat.Dense) *mat.Dense {
	n := j.Rows
	w := mat.NewDense(n, n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			w.Set(a, b, math.Abs(j.At(a, b))+math.Abs(j.At(b, a)))
		}
	}
	return w
}

// Louvain runs the Louvain community-detection algorithm (Blondel et al.
// 2008, the paper's choice) on the weighted symmetric graph w. maxPasses
// bounds the number of level iterations; 10 is plenty for the graph sizes
// here.
func Louvain(w *mat.Dense, maxPasses int) *Partition {
	n := w.Rows
	if n == 0 {
		return &Partition{Labels: nil, Num: 0}
	}
	// Current graph (aggregated as levels proceed).
	cur := w.Clone()
	// mapping[node in original graph] -> node in current graph.
	mapping := make([]int, n)
	for i := range mapping {
		mapping[i] = i
	}
	for pass := 0; pass < maxPasses; pass++ {
		labels, moved := louvainLocal(cur)
		if !moved && pass > 0 {
			break
		}
		// Compact labels.
		lp := &Partition{Labels: labels}
		lp.compact()
		// Update original-node mapping.
		for i := range mapping {
			mapping[i] = lp.Labels[mapping[i]]
		}
		if lp.Num == cur.Rows {
			break // no aggregation possible
		}
		// Aggregate graph: communities become nodes. Intra-community
		// weight becomes a self-loop, which must be preserved — it keeps
		// the super-node's degree honest so later passes do not merge
		// weakly-linked communities.
		next := mat.NewDense(lp.Num, lp.Num)
		for a := 0; a < cur.Rows; a++ {
			for b := 0; b < cur.Cols; b++ {
				if v := cur.At(a, b); v != 0 {
					next.Add(lp.Labels[a], lp.Labels[b], v)
				}
			}
		}
		cur = next
	}
	p := &Partition{Labels: mapping}
	p.compact()
	return p
}

// louvainLocal performs the local-moving phase: repeatedly move nodes to
// the neighboring community with the largest modularity gain until no move
// improves. Returns labels and whether anything moved.
func louvainLocal(w *mat.Dense) ([]int, bool) {
	n := w.Rows
	labels := make([]int, n)
	deg := make([]float64, n)
	var m2 float64 // 2m
	for i := 0; i < n; i++ {
		labels[i] = i
		for j := 0; j < n; j++ {
			deg[i] += w.At(i, j)
		}
		m2 += deg[i]
	}
	if m2 == 0 {
		return labels, false
	}
	commDeg := mat.CopyVec(deg) // total degree per community
	// toComm[c] is the weight from node i to neighbouring community c;
	// touched lists those communities in first-seen order. Candidates are
	// scanned in that fixed order because the 1e-12 gain margin makes the
	// pick order-dependent on near-ties: ranging over a map here made the
	// partition differ from run to run.
	toComm := make([]float64, n)
	isTouched := make([]bool, n)
	touched := make([]int, 0, n)
	anyMoved := false
	for iter := 0; iter < 50; iter++ {
		movedThisIter := false
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j != i {
					if v := w.At(i, j); v != 0 {
						c := labels[j]
						if !isTouched[c] {
							isTouched[c] = true
							touched = append(touched, c)
						}
						toComm[c] += v
					}
				}
			}
			old := labels[i]
			commDeg[old] -= deg[i]
			bestComm, bestGain := old, 0.0
			baseGain := toComm[old] - commDeg[old]*deg[i]/m2
			for _, c := range touched {
				gain := toComm[c] - commDeg[c]*deg[i]/m2
				if gain-baseGain > bestGain+1e-12 {
					bestGain = gain - baseGain
					bestComm = c
				}
			}
			for _, c := range touched {
				toComm[c], isTouched[c] = 0, false
			}
			touched = touched[:0]
			labels[i] = bestComm
			commDeg[bestComm] += deg[i]
			if bestComm != old {
				movedThisIter = true
				anyMoved = true
			}
		}
		if !movedThisIter {
			break
		}
	}
	return labels, anyMoved
}

// PruneToDensity returns a copy of j keeping only the strongest couplings
// so that the off-diagonal density is at most density (the paper's
// "communication demand density" D applied globally). Entries are ranked by
// |J_ij| + |J_ji| so coupled pairs survive or die together, preserving the
// pairwise resistor-ring structure.
func PruneToDensity(j *mat.Dense, density float64) *mat.Dense {
	n := j.Rows
	if n != j.Cols {
		panic(fmt.Sprintf("community: PruneToDensity on %dx%d", n, j.Cols))
	}
	if density < 0 || density > 1 {
		panic(fmt.Sprintf("community: density %g out of [0,1]", density))
	}
	type pair struct {
		a, b int
		mag  float64
	}
	// Only the non-zero pairs are ranked, and a trained J is mostly zero
	// (only its unknown rows are populated), so count them before sizing
	// the slice.
	nonzero := 0
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if math.Abs(j.At(a, b))+math.Abs(j.At(b, a)) > 0 {
				nonzero++
			}
		}
	}
	pairs := make([]pair, 0, nonzero)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			mag := math.Abs(j.At(a, b)) + math.Abs(j.At(b, a))
			if mag > 0 {
				pairs = append(pairs, pair{a, b, mag})
			}
		}
	}
	// Strongest first. slices.SortFunc and sort.Slice run the same
	// pattern-defeating quicksort and make the same moves on the same
	// comparisons, so under this order pairs of equal strength land where
	// sort.Slice puts them and the kept set is the same with either
	// (TestPruneKeepsSortSliceOrder).
	slices.SortFunc(pairs, func(x, y pair) int { return cmp.Compare(y.mag, x.mag) })
	// Each kept pair contributes 2 entries out of n*n budget.
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

// SupportMask returns the boolean support of j (|v| > eps, diagonal
// excluded).
func SupportMask(j *mat.Dense, eps float64) *mat.Bool {
	m := mat.NewBool(j.Rows, j.Cols)
	for a := 0; a < j.Rows; a++ {
		for b := 0; b < j.Cols; b++ {
			if a != b && math.Abs(j.At(a, b)) > eps {
				m.Set(a, b, true)
			}
		}
	}
	return m
}

// RefineByClass splits every community along interaction-class boundaries:
// two nodes stay in the same refined community only if they share both the
// original community AND the class label. The heterogeneous-decomposition
// pipeline runs this between Louvain and Redistribute so no PE mixes
// interaction classes (ROADMAP item 5). With a single class the input
// partition is returned label-for-label: Louvain output is already
// compacted by first occurrence, and so is the refinement — the K=1
// decomposed pipeline stays bit-identical to the monolithic one.
//
// Like the rest of this package, malformed input panics: classOf must
// cover every node and hold non-negative labels.
func RefineByClass(p *Partition, classOf []int) *Partition {
	if len(classOf) != len(p.Labels) {
		panic(fmt.Sprintf("community: class vector has %d entries, want %d", len(classOf), len(p.Labels)))
	}
	k := 0
	for i, c := range classOf {
		if c < 0 {
			panic(fmt.Sprintf("community: negative class %d at node %d", c, i))
		}
		if c+1 > k {
			k = c + 1
		}
	}
	out := &Partition{Labels: make([]int, len(p.Labels))}
	for i, l := range p.Labels {
		out.Labels[i] = l*k + classOf[i]
	}
	out.compact()
	return out
}
