// Package circuit models the electrical network underlying both the BRIM
// Ising machine and the Real-Valued DSPU: nano-scale capacitors holding node
// voltages, a programmable resistive coupling network, and (for the DSPU)
// the circulative resistor rings implementing the quadratic self-reaction
// term.
//
// The network is exposed as an ode.System with state σ (the vector of
// capacitor voltages) so the same integration core drives binary annealing
// and real-valued annealing. Voltages are normalized to the rails [-1, +1];
// time is in nanoseconds; conductances are in normalized units where the
// node capacitance is 1, a ~1 ns node time constant, matching the 0-50 ns
// settling traces of Fig. 4.
package circuit

import (
	"fmt"
	"math"

	"dsgl/internal/mat"
)

// SelfReaction selects the self-reaction term of the Hamiltonian, i.e. the
// in-node circuitry.
type SelfReaction int

const (
	// Linear is the original Ising term -Σ h_i σ_i (BRIM). Voltages
	// polarize to the rails; the machine is binary.
	Linear SelfReaction = iota
	// Quadratic is the DS-GL term -Σ h_i σ_i² realized by the circulative
	// resistor ring. With h_i < 0 voltages stabilize at real values
	// σ_i = -Σ_j J_ij σ_j / h_i (Eq. 5 of the paper).
	Quadratic
)

// String implements fmt.Stringer.
func (s SelfReaction) String() string {
	switch s {
	case Linear:
		return "linear"
	case Quadratic:
		return "quadratic"
	default:
		return fmt.Sprintf("SelfReaction(%d)", int(s))
	}
}

// Network is the coupled capacitor/resistor network.
//
// Dynamics (normalized units, unit node capacitance):
//
//	Linear:    dσ_i/dt = Σ_j J_ij σ_j + h_i
//	Quadratic: dσ_i/dt = Σ_j J_ij σ_j + h_i σ_i
//
// with σ clamped to [-VRail, +VRail] after every step, and dσ_i/dt = 0 for
// clamped (observed input) nodes.
type Network struct {
	N           int
	Self        SelfReaction
	VRail       float64
	J           *mat.CSR  // coupling conductances, diag-free
	H           []float64 // self-reaction conductances (Quadratic: must be < 0)
	Clamped     []bool    // true = node voltage held at its set value
	couplingBuf []float64
}

// Config collects the parameters for NewNetwork.
type Config struct {
	Self  SelfReaction
	VRail float64 // defaults to 1
}

// NewNetwork builds a network of n nodes with coupling matrix j (converted
// to CSR with entries |v| <= 0 dropped) and self-reaction vector h.
// For the Quadratic self-reaction every h_i must be strictly negative: that
// is the convexity condition the training algorithm enforces, and the
// hardware realizes it as a passive resistor (conductance magnitude |h_i|).
func NewNetwork(j *mat.Dense, h []float64, cfg Config) (*Network, error) {
	n := j.Rows
	if j.Cols != n {
		return nil, fmt.Errorf("circuit: coupling matrix must be square, got %dx%d", j.Rows, j.Cols)
	}
	if len(h) != n {
		return nil, fmt.Errorf("circuit: len(h)=%d, want %d", len(h), n)
	}
	for i := 0; i < n; i++ {
		if j.At(i, i) != 0 {
			return nil, fmt.Errorf("circuit: coupling matrix has non-zero diagonal at %d (diag(J)=0 required)", i)
		}
	}
	if cfg.Self == Quadratic {
		for i, v := range h {
			if v >= 0 {
				return nil, fmt.Errorf("circuit: quadratic self-reaction requires h[%d] < 0, got %g", i, v)
			}
		}
	}
	if cfg.VRail == 0 {
		cfg.VRail = 1
	}
	return &Network{
		N:       n,
		Self:    cfg.Self,
		VRail:   cfg.VRail,
		J:       mat.FromDense(j, 0),
		H:       mat.CopyVec(h),
		Clamped: make([]bool, n),
	}, nil
}

// NewNetworkCSR is NewNetwork for a pre-built sparse coupling matrix.
// The matrix is used directly (not copied).
func NewNetworkCSR(j *mat.CSR, h []float64, cfg Config) (*Network, error) {
	if j.Rows != j.Cols {
		return nil, fmt.Errorf("circuit: coupling matrix must be square, got %dx%d", j.Rows, j.Cols)
	}
	if len(h) != j.Rows {
		return nil, fmt.Errorf("circuit: len(h)=%d, want %d", len(h), j.Rows)
	}
	if cfg.Self == Quadratic {
		for i, v := range h {
			if v >= 0 {
				return nil, fmt.Errorf("circuit: quadratic self-reaction requires h[%d] < 0, got %g", i, v)
			}
		}
	}
	if cfg.VRail == 0 {
		cfg.VRail = 1
	}
	return &Network{
		N:       j.Rows,
		Self:    cfg.Self,
		VRail:   cfg.VRail,
		J:       j,
		H:       mat.CopyVec(h),
		Clamped: make([]bool, j.Rows),
	}, nil
}

// ClampSet clamps exactly the listed nodes, releasing all others.
func (nw *Network) ClampSet(nodes []int) {
	for i := range nw.Clamped {
		nw.Clamped[i] = false
	}
	for _, i := range nodes {
		nw.Clamped[i] = true
	}
}

// Dim implements ode.System.
func (nw *Network) Dim() int { return nw.N }

// Derivative implements ode.System: the node current balance of Eq. 8,
// using the network's own clamp set and internal coupling buffer. Not safe
// for concurrent use — concurrent annealing goes through DerivativeMasked
// with caller-owned mask and scratch, as the BRIM solver does. The dense
// DSPU's inferences evaluate the quadratic balance through their clamp
// plans instead, bit for bit; its TraceRun (Fig. 4) drives this method
// directly.
func (nw *Network) Derivative(t float64, x, dst []float64) {
	if len(nw.couplingBuf) != nw.N {
		nw.couplingBuf = make([]float64, nw.N)
	}
	nw.DerivativeMasked(t, x, dst, nw.Clamped, nw.couplingBuf)
}

// DerivativeMasked is Derivative with a caller-provided clamp mask and
// coupling scratch buffer (length N). It writes no network state, so
// distinct callers with private masks and buffers may evaluate it
// concurrently on a shared network.
func (nw *Network) DerivativeMasked(_ float64, x, dst []float64, clamped []bool, buf []float64) {
	nw.J.MulVec(x, buf)
	for i := 0; i < nw.N; i++ {
		if clamped[i] {
			dst[i] = 0
			continue
		}
		var self float64
		switch nw.Self {
		case Linear:
			self = nw.H[i]
		case Quadratic:
			self = nw.H[i] * x[i]
		}
		d := buf[i] + self
		// Rails: once a node is at a rail, only inward current moves it.
		if x[i] >= nw.VRail && d > 0 {
			d = 0
		} else if x[i] <= -nw.VRail && d < 0 {
			d = 0
		}
		dst[i] = d
	}
}

// Residual evaluates the equilibrium residual max |dσ/dt| at x, skipping
// nodes marked in clamped. buf is caller-provided scratch of length N. It
// is computed independently of any anneal loop, so the settle condition is
// checkable from outside one.
func (nw *Network) Residual(x []float64, clamped []bool, buf []float64) float64 {
	nw.J.MulVec(x, buf)
	maxD := 0.0
	for i := 0; i < nw.N; i++ {
		if clamped[i] {
			continue
		}
		var self float64
		switch nw.Self {
		case Linear:
			self = nw.H[i]
		case Quadratic:
			self = nw.H[i] * x[i]
		}
		d := buf[i] + self
		if x[i] >= nw.VRail && d > 0 {
			d = 0
		} else if x[i] <= -nw.VRail && d < 0 {
			d = 0
		}
		if a := math.Abs(d); a > maxD {
			maxD = a
		}
	}
	return maxD
}

// ClampRails limits the state vector to the rails in place. Integration
// drivers call this after every step.
func (nw *Network) ClampRails(x []float64) {
	mat.Clamp(x, -nw.VRail, nw.VRail)
}

// Energy evaluates the network Hamiltonian at state x:
//
//	Linear:    H = -Σ_{i<j+sym} J_ij σ_i σ_j - Σ h_i σ_i     (Ising, Eq. 1)
//	Quadratic: H = -Σ J_ij σ_i σ_j - Σ h_i σ_i²              (H_RV, Eq. 4)
//
// using the substituted (single-sum) convention of the paper where J already
// includes both (i,j) and (j,i) contributions.
func (nw *Network) Energy(x []float64) float64 {
	var e float64
	for i := 0; i < nw.N; i++ {
		for p := nw.J.RowPtr[i]; p < nw.J.RowPtr[i+1]; p++ {
			e -= 0.5 * nw.J.Val[p] * x[i] * x[nw.J.ColIdx[p]]
		}
	}
	for i, h := range nw.H {
		switch nw.Self {
		case Linear:
			e -= h * x[i]
		case Quadratic:
			e -= 0.5 * h * x[i] * x[i]
		}
	}
	return e
}

// Equilibrium returns the analytic fixed point for a Quadratic network with
// all-free nodes by solving (diag(h) + J) σ = 0 restricted to the free
// nodes with clamped values as boundary conditions. It uses Gauss-Seidel
// iteration (the same contraction the physics performs) and is used by
// tests to cross-check the ODE integration.
func (nw *Network) Equilibrium(x []float64, iters int) []float64 {
	if nw.Self != Quadratic {
		panic("circuit: Equilibrium requires quadratic self-reaction")
	}
	out := mat.CopyVec(x)
	for it := 0; it < iters; it++ {
		for i := 0; i < nw.N; i++ {
			if nw.Clamped[i] {
				continue
			}
			var s float64
			for p := nw.J.RowPtr[i]; p < nw.J.RowPtr[i+1]; p++ {
				s += nw.J.Val[p] * out[nw.J.ColIdx[p]]
			}
			v := -s / nw.H[i]
			if v > nw.VRail {
				v = nw.VRail
			} else if v < -nw.VRail {
				v = -nw.VRail
			}
			out[i] = v
		}
	}
	return out
}
