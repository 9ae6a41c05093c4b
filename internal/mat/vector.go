package mat

// CopyVec returns a copy of x.
func CopyVec(x []float64) []float64 {
	c := make([]float64, len(x))
	copy(c, x)
	return c
}
