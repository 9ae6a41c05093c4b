package mat

import "testing"

func TestCopyVecIndependent(t *testing.T) {
	x := []float64{1, 2}
	c := CopyVec(x)
	c[0] = 9
	if x[0] != 1 {
		t.Fatal("CopyVec must copy")
	}
}
