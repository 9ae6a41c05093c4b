package mat

import "testing"

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if NormInf(x) != 4 {
		t.Fatalf("NormInf = %g", NormInf(x))
	}
}

func TestClamp(t *testing.T) {
	x := []float64{-2, 0.5, 3}
	Clamp(x, -1, 1)
	if x[0] != -1 || x[1] != 0.5 || x[2] != 1 {
		t.Fatalf("Clamp = %v", x)
	}
}

func TestCopyVecIndependent(t *testing.T) {
	x := []float64{1, 2}
	c := CopyVec(x)
	c[0] = 9
	if x[0] != 1 {
		t.Fatal("CopyVec must copy")
	}
}
