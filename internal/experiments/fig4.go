package experiments

import (
	"fmt"
	"io"
	"math"

	"dsgl/internal/circuit"
	"dsgl/internal/dspu"
	"dsgl/internal/engine"
	"dsgl/internal/mat"
	"dsgl/internal/ode"
	"dsgl/internal/rng"
)

// Fig4 reproduces the circuit-level validation of Fig. 4: a 6-spin graph
// (v0-v5) with v0, v2, v4 clamped as inputs, deployed on both the
// Real-Valued DSPU and baseline BRIM with identical inputs and coupling
// parameters. The DSPU's free nodes settle at real values strictly between
// the rails; BRIM's polarize to ±1.
func Fig4(cfg Config, w io.Writer) error {
	cfg.fillDefaults()
	header(w, "Fig. 4 — circuit-level validation: DSPU vs BRIM, 6-spin graph, 0-50 ns")

	const n = 6
	r := rng.New(cfg.Seed + 4)
	j := mat.NewDense(n, n)
	// An illustrative coupled graph (ring + chords), symmetric.
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 4}, {0, 3}}
	for _, e := range edges {
		v := r.Uniform(0.3, 0.9)
		if r.Float64() < 0.4 {
			v = -v
		}
		j.Set(e[0], e[1], v)
		j.Set(e[1], e[0], v)
	}
	h := make([]float64, n)
	for i := range h {
		h[i] = -1.5
	}
	inputs := []engine.Observation{{Index: 0, Value: 0.7}, {Index: 2, Value: -0.4}, {Index: 4, Value: 0.2}}

	// DSPU trace.
	d, err := dspu.New(j, h, dspu.Config{Dt: 0.02})
	if err != nil {
		return err
	}
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = r.Uniform(-0.05, 0.05)
	}
	dtrace, err := d.TraceRun(x0, inputs, 50, 5)
	if err != nil {
		return err
	}

	// BRIM trace: same couplings, linear self-reaction (field 0), same
	// clamped inputs.
	bnet, err := circuit.NewNetwork(j, make([]float64, n), circuit.Config{Self: circuit.Linear})
	if err != nil {
		return err
	}
	bnet.ClampSet([]int{0, 2, 4})
	bx := mat.CopyVec(x0)
	for _, in := range inputs {
		bx[in.Index] = in.Value
	}
	ig := ode.NewEuler()
	btimes := []float64{0}
	bstates := [][]float64{mat.CopyVec(bx)}
	t := 0.0
	next := 5.0
	for step := 0; step < 2500; step++ {
		t = ig.Step(bnet, t, 0.02, bx)
		bnet.ClampRails(bx)
		if t+1e-9 >= next {
			btimes = append(btimes, t)
			bstates = append(bstates, mat.CopyVec(bx))
			next += 5
		}
	}

	fmt.Fprintln(w, "\nDSPU (real-valued settling):")
	printTrace(w, dtrace.TimesNs, dtrace.States)
	fmt.Fprintln(w, "\nBRIM (binary polarization):")
	printTrace(w, btimes, bstates)

	// Verdict lines mirroring the paper's observation.
	dFinal := dtrace.States[len(dtrace.States)-1]
	bFinal := bstates[len(bstates)-1]
	real, polar := 0, 0
	for _, i := range []int{1, 3, 5} {
		if math.Abs(dFinal[i]) < 0.99 {
			real++
		}
		if math.Abs(math.Abs(bFinal[i])-1) < 1e-3 {
			polar++
		}
	}
	fmt.Fprintf(w, "\nDSPU free nodes settled strictly inside the rails: %d/3\n", real)
	fmt.Fprintf(w, "BRIM free nodes polarized to ±1:                   %d/3\n", polar)
	return nil
}

func printTrace(w io.Writer, times []float64, states [][]float64) {
	fmt.Fprintf(w, "%8s", "t(ns)")
	for i := 0; i < len(states[0]); i++ {
		fmt.Fprintf(w, "%9s", fmt.Sprintf("v%d", i))
	}
	fmt.Fprintln(w)
	for k := range times {
		fmt.Fprintf(w, "%8.1f", times[k])
		for _, v := range states[k] {
			fmt.Fprintf(w, "%9.4f", v)
		}
		fmt.Fprintln(w)
	}
}
