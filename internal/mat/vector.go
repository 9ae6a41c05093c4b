package mat

import "math"

// Vector helpers. These operate on plain []float64 so callers can use Go
// slices directly; no wrapper type is needed.

// NormInf returns the max-abs norm of x.
func NormInf(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Clamp limits every element of x to [lo, hi] in place. The circuit rails
// bound capacitor voltages the same way.
func Clamp(x []float64, lo, hi float64) {
	for i, v := range x {
		if v < lo {
			x[i] = lo
		} else if v > hi {
			x[i] = hi
		}
	}
}

// CopyVec returns a copy of x.
func CopyVec(x []float64) []float64 {
	c := make([]float64, len(x))
	copy(c, x)
	return c
}
