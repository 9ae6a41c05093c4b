package hetero

import (
	"testing"

	"dsgl/internal/datasets"
)

func TestAssignDeterministic(t *testing.T) {
	d := datasets.Generate("heteromix", datasets.Config{N: 24, T: 480, Seed: 7})
	for _, mode := range []string{ModeStats, ModeEmbed} {
		a, err := Assign(d, Config{K: 3, Mode: mode, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Assign(d, Config{K: 3, Mode: mode, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.NodeClass {
			if a.NodeClass[i] != b.NodeClass[i] {
				t.Fatalf("mode %s: node %d class differs across identical runs", mode, i)
			}
		}
	}
}

func TestAssignK1Uniform(t *testing.T) {
	d := datasets.Generate("housing", datasets.Config{N: 16, T: 200})
	c, err := Assign(d, Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 1 {
		t.Fatalf("K = %d", c.K)
	}
	for i, l := range c.NodeClass {
		if l != 0 {
			t.Fatalf("node %d class %d, want 0", i, l)
		}
	}
}

func TestAssignCanonicalLabels(t *testing.T) {
	d := datasets.Generate("heteromix", datasets.Config{N: 24, T: 480, Seed: 3})
	c, err := Assign(d, Config{K: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if c.NodeClass[0] != 0 {
		t.Fatalf("first node must carry class 0, got %d", c.NodeClass[0])
	}
	seen := 0
	for _, l := range c.NodeClass {
		if l < 0 || l >= c.K {
			t.Fatalf("label %d out of range", l)
		}
		if l > seen {
			t.Fatalf("label %d appeared before %d (not first-occurrence canonical)", l, seen)
		}
		if l == seen {
			seen++
		}
	}
}

// TestAssignRecoversHeteroMixTypes checks the assignment is behaviorally
// meaningful: on the heteromix generator (three planted dynamical
// families tied to communities), K=3 stats clustering must align with the
// planted types well above chance. The check is deterministic — fixed
// dataset, fixed seed.
func TestAssignRecoversHeteroMixTypes(t *testing.T) {
	d := datasets.Generate("heteromix", datasets.Config{N: 36, T: 960, Seed: 7})
	c, err := Assign(d, Config{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Planted type of node i is its community mod 3 (see GenHeteroMix).
	// Count the best one-to-one-free mapping: each planted type maps to
	// its majority cluster.
	hits := 0
	for ty := 0; ty < 3; ty++ {
		counts := make([]int, c.K)
		for i := 0; i < d.N; i++ {
			if d.Community[i]%3 == ty {
				counts[c.NodeClass[i]]++
			}
		}
		best := 0
		for _, v := range counts {
			if v > best {
				best = v
			}
		}
		hits += best
	}
	purity := float64(hits) / float64(d.N)
	if purity < 0.75 {
		t.Fatalf("class purity %.2f against planted types, want >= 0.75", purity)
	}
}

func TestAssignErrors(t *testing.T) {
	d := datasets.Generate("housing", datasets.Config{N: 8, T: 80})
	if _, err := Assign(d, Config{K: 0}); err == nil {
		t.Fatal("K=0 must error")
	}
	if _, err := Assign(d, Config{K: 9}); err == nil {
		t.Fatal("K > N must error")
	}
	if _, err := Assign(d, Config{K: 2, Mode: "typo"}); err == nil {
		t.Fatal("unknown mode must error")
	}
}

func TestUniform(t *testing.T) {
	u := Uniform(5)
	if u.K != 1 || len(u.NodeClass) != 5 || u.NodeClass[3] != 0 {
		t.Fatalf("Uniform(5) = %+v", u)
	}
}
