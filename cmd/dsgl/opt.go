package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dsgl"
)

// optCmd is the combinatorial-optimization entry point: generate or load a
// Gset-style MaxCut instance, lower it to Ising, and anneal it through the
// engine's seeded multi-restart fan-out. It dispatches before the shared
// experiment FlagSet in realMain because its flag surface is disjoint.
//
// The output is deterministic in (instance, flags) and independent of
// -workers — the engine's fan-out contract — so CI can diff runs at
// different worker counts byte for byte.
func optCmd(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("opt", flag.ContinueOnError)
	gen := fs.String("gen", "gset", `instance generator: "gset" (seeded random graph) or "torus" (rows x cols lattice)`)
	nodes := fs.Int("nodes", 128, "graph nodes (gset) or total lattice sites rows*cols (torus; must be a perfect-rectangle rows=nodes/cols)")
	degree := fs.Int("degree", 4, "edges drawn per node (gset)")
	cols := fs.Int("cols", 0, "lattice columns (torus; 0 = square-ish)")
	weighted := fs.Bool("weighted", false, "draw edge weights from (0,1] instead of unit weights (gset)")
	file := fs.String("file", "", "load a Gset-format instance file instead of generating one")
	dynamics := fs.String("dynamics", dsgl.DynamicsMetropolis,
		fmt.Sprintf("solver dynamics: %s", strings.Join(dsgl.OptDynamics(), "|")))
	schedule := fs.String("schedule", "geometric",
		fmt.Sprintf("annealing schedule: %s", strings.Join(dsgl.OptScheduleKinds(), "|")))
	steps := fs.Int("steps", 200, "schedule steps per restart (sweeps / checkpoint blocks)")
	t0 := fs.Float64("t0", 2, "schedule start temperature")
	t1 := fs.Float64("t1", 0.05, "schedule end temperature")
	period := fs.Int("period", 4, "adaptive schedule: restarts per reheat cycle")
	reheat := fs.Float64("reheat", 0.5, "adaptive schedule: per-cycle reheat decay")
	restarts := fs.Int("restarts", 4, "seeded anneals to fan out (restart i runs with seed seed+i)")
	workers := fs.Int("workers", 0, "restart fan-out concurrency (0 = GOMAXPROCS; never changes the result)")
	seed := fs.Uint64("seed", 7, "base seed (also seeds the gset generator)")
	trace := fs.Bool("trace", false, "print per-restart energies and the best-energy-so-far trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var g *dsgl.OptInstance
	var err error
	switch {
	case *file != "":
		g, err = dsgl.LoadGsetInstance(*file)
	case *gen == "gset":
		g, err = dsgl.GsetInstance(*nodes, *degree, *weighted, *seed)
	case *gen == "torus":
		c := *cols
		if c <= 0 {
			c = squareishCols(*nodes)
		}
		if c < 1 || *nodes%c != 0 {
			err = fmt.Errorf("torus: -nodes %d is not divisible by -cols %d", *nodes, c)
		} else {
			g, err = dsgl.TorusInstance(*nodes/c, c)
		}
	default:
		err = fmt.Errorf("unknown generator %q (want gset or torus)", *gen)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsgl opt: %v\n", err)
		return 1
	}

	rep, err := dsgl.SolveMaxCut(g, dsgl.OptOptions{
		Dynamics: *dynamics,
		Schedule: *schedule,
		Steps:    *steps,
		T0:       *t0,
		T1:       *t1,
		Period:   *period,
		Reheat:   *reheat,
		Restarts: *restarts,
		Workers:  *workers,
		Seed:     *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsgl opt: %v\n", err)
		return 1
	}

	fmt.Fprintf(out, "instance %s: %d nodes, %d edges\n", rep.Instance, rep.Nodes, rep.Edges)
	fmt.Fprintf(out, "solver %s, %s schedule (%d steps, T %g -> %g), %d restarts\n",
		rep.Backend, rep.Schedule.Kind, rep.Schedule.Steps, rep.Schedule.T0, rep.Schedule.T1, rep.Run.Restarts)
	fmt.Fprintf(out, "best cut %.3f (energy %.6g, restart %d)\n",
		rep.Cut, rep.Run.Best.Energy, rep.Run.BestRestart)
	if *trace {
		for i := range rep.Run.Energies {
			fmt.Fprintf(out, "  restart %d: energy %.6g, best so far %.6g\n",
				i, rep.Run.Energies[i], rep.Run.BestTrace[i])
		}
	}
	return 0
}

// squareishCols picks the largest divisor of n that is <= sqrt(n), so a bare
// -nodes torus request becomes the squarest lattice that tiles it.
func squareishCols(n int) int {
	best := 1
	for c := 2; c*c <= n; c++ {
		if n%c == 0 {
			best = c
		}
	}
	return best
}
