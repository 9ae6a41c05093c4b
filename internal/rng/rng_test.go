package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %g too far from 0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn covered only %d of 10 values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(5)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %g too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %g too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(9)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestUniformRange(t *testing.T) {
	r := New(2)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform out of range: %g", v)
		}
	}
}

func TestFillHelpers(t *testing.T) {
	r := New(4)
	x := make([]float64, 100)
	r.FillUniform(x, 1, 2)
	for _, v := range x {
		if v < 1 || v >= 2 {
			t.Fatalf("FillUniform out of range: %g", v)
		}
	}
	r.FillNorm(x, 10, 0.001)
	for _, v := range x {
		if math.Abs(v-10) > 0.01 {
			t.Fatalf("FillNorm sample %g too far from mean", v)
		}
	}
}

func TestShuffle(t *testing.T) {
	r := New(6)
	x := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), x...)
	r.Shuffle(len(x), func(i, j int) { x[i], x[j] = x[j], x[i] })
	sum := 0
	for _, v := range x {
		sum += v
	}
	if sum != 28 {
		t.Fatalf("shuffle lost elements: %v", x)
	}
	moved := false
	for i := range x {
		if x[i] != orig[i] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("shuffle did not move anything (astronomically unlikely)")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r RNG
	_ = r.Uint64() // must not panic
}
