package community

import (
	"testing"
	"testing/quick"

	"dsgl/internal/mat"
	"dsgl/internal/rng"
)

// randWeights builds a random symmetric non-negative weight matrix.
func randWeights(seed uint64, n int, density float64) *mat.Dense {
	r := rng.New(seed)
	w := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < density {
				v := r.Uniform(0.05, 1)
				w.Set(i, j, v)
				w.Set(j, i, v)
			}
		}
	}
	return w
}

// TestQuickLouvainPartitionValid: for random graphs, Louvain always emits a
// valid compact partition whose modularity is at least that of the trivial
// partition.
func TestQuickLouvainPartitionValid(t *testing.T) {
	f := func(seed uint64) bool {
		n := 8 + int(seed%17)
		w := randWeights(seed, n, 0.3)
		p := Louvain(w, 10)
		if len(p.Labels) != n {
			return false
		}
		seen := make(map[int]bool)
		for _, l := range p.Labels {
			if l < 0 || l >= p.Num {
				return false
			}
			seen[l] = true
		}
		if len(seen) != p.Num {
			return false
		}
		trivial := &Partition{Labels: make([]int, n), Num: 1}
		return p.Modularity(w) >= trivial.Modularity(w)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRedistributeAlwaysValid: any Louvain partition of any random
// graph redistributes into a structurally valid assignment.
func TestQuickRedistributeAlwaysValid(t *testing.T) {
	f := func(seed uint64) bool {
		n := 10 + int(seed%23)
		capacity := 3 + int(seed%7)
		w := randWeights(seed, n, 0.25)
		p := Louvain(w, 10)
		a, err := Redistribute(p, w, capacity)
		if err != nil {
			return false
		}
		return a.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPruneInvariants: pruning never raises density above the target,
// never invents entries, and is idempotent.
func TestQuickPruneInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		n := 6 + int(seed%15)
		r := rng.New(seed ^ 0xabc)
		j := mat.NewDense(n, n)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a != b && r.Float64() < 0.5 {
					j.Set(a, b, r.NormScaled(0, 1))
				}
			}
		}
		density := 0.05 + 0.3*r.Float64()
		pruned := PruneToDensity(j, density)
		if float64(pruned.NNZ(0))/float64(n*n) > density+1e-9 {
			return false
		}
		for i, v := range pruned.Data {
			if v != 0 && v != j.Data[i] {
				return false // entries must be copied, never altered
			}
		}
		again := PruneToDensity(pruned, density)
		return again.Equal(pruned, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGridForCapacity: the chosen grid always has enough slots and is
// never more than one row larger than necessary.
func TestQuickGridForCapacity(t *testing.T) {
	f := func(seed uint64) bool {
		n := 1 + int(seed%500)
		capacity := 1 + int((seed>>8)%64)
		w, h := GridFor(n, capacity)
		if w*h*capacity < n {
			return false
		}
		// Not grossly oversized: removing one full row must not still fit.
		if h > 1 && w*(h-1)*capacity >= n && w*h > 2 {
			// allowed only when the square-ish shape forces it
			if (w-1)*(w-1)*capacity >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
