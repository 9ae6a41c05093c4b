// Max-cut on the BRIM Ising-machine substrate — the classical workload that
// motivated CMOS Ising machines (paper Sec. I-II). Demonstrates the binary
// baseline DS-GL builds on: natural annealing finds near-optimal cuts in
// tens of simulated nanoseconds.
//
//	go run ./examples/maxcut
package main

import (
	"fmt"
	"log"

	"dsgl"
)

func main() {
	// A seeded random weighted graph, small enough to brute-force for
	// reference.
	g, err := dsgl.GsetInstance(16, 3, true, 99)
	if err != nil {
		log.Fatal(err)
	}
	model, err := g.ToIsing()
	if err != nil {
		log.Fatal(err)
	}
	ground, bestE, err := model.GroundState()
	if err != nil {
		log.Fatal(err)
	}
	best := g.CutValue(ground)

	// One BRIM anneal per row; each schedule step integrates 2 ns of
	// circuit time before the next random-flip escape.
	fmt.Printf("%12s %12s %12s %10s\n", "steps", "cut", "optimal", "ratio")
	for _, steps := range []int{5, 12, 25, 50, 100} {
		rep, err := dsgl.SolveMaxCut(g, dsgl.OptOptions{
			Dynamics: dsgl.DynamicsBRIM,
			Steps:    steps,
			Restarts: 1,
			Seed:     7,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%12d %12.3f %12.3f %9.1f%%\n", steps, rep.Cut, best, 100*rep.Cut/best)
	}
	fmt.Printf("\nground-state Ising energy: %.3f\n", bestE)
}
