// Package rng provides the deterministic pseudo-random source used across
// the reproduction. All experiments are seeded so that every table and
// figure regenerates identically run-to-run.
//
// The generator is SplitMix64 feeding xoshiro256**-style output through the
// standard library is avoided on purpose: math/rand's global state makes
// experiments order-dependent, while an explicit RNG threaded through each
// component keeps the simulator deterministic under refactoring.
package rng

import "math"

// RNG is a small, fast, splittable PRNG (SplitMix64). The zero value is a
// valid generator seeded with 0.
type RNG struct {
	state uint64
}

// New returns an RNG seeded with seed.
func New(seed uint64) *RNG { return &RNG{state: seed} }

// Reseed resets the generator to the exact stream of New(seed) without
// allocating. Reusable scratch states (engine.InferState) embed an RNG by
// value and Reseed it per inference so the anneal hot loop
// stays allocation-free.
func (r *RNG) Reseed(seed uint64) { r.state = seed }

// Split derives an independent child generator. The child's stream is
// decorrelated from the parent's continued stream, so subsystems can be
// given their own sources without coordinating draw counts.
func (r *RNG) Split() *RNG { return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15} }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a standard normal draw (Box-Muller).
func (r *RNG) Norm() float64 {
	// Reject u1 == 0 to keep Log finite.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormScaled returns mean + sd*Norm().
func (r *RNG) NormScaled(mean, sd float64) float64 {
	return mean + sd*r.Norm()
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle randomly permutes the first n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// FillUniform fills x with uniform draws from [lo, hi).
func (r *RNG) FillUniform(x []float64, lo, hi float64) {
	for i := range x {
		x[i] = r.Uniform(lo, hi)
	}
}

// FillNorm fills x with N(mean, sd²) draws.
func (r *RNG) FillNorm(x []float64, mean, sd float64) {
	for i := range x {
		x[i] = r.NormScaled(mean, sd)
	}
}
