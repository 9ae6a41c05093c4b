package dsgl

import (
	"fmt"
	"strings"

	"dsgl/internal/engine"
	"dsgl/internal/ising"
	"dsgl/internal/opt"
)

// Combinatorial-optimization entry points: Gset-style MaxCut instances
// lowered onto the Ising solver backends and annealed through the engine's
// seeded multi-restart fan-out. This is the workload family that opened
// with the OptBackend contract — same determinism discipline as the
// regression path (restart i runs with seed base+i; parallel solving is
// bit-identical to sequential for any worker count).

// Re-exported optimization types.
type (
	// OptInstance is a Gset-style MaxCut instance.
	OptInstance = opt.Instance
	// OptRun is the outcome of a multi-restart solve.
	OptRun = engine.OptRun
	// OptResult is one restart's best state and energy.
	OptResult = engine.OptResult
	// OptSchedule is an annealing schedule (linear/geometric/adaptive).
	OptSchedule = engine.Schedule
)

// Solver dynamics selectable in OptOptions.Dynamics.
const (
	DynamicsBRIM       = string(ising.BRIMDynamics)
	DynamicsMetropolis = string(ising.MetropolisDynamics)
	DynamicsOIM        = string(ising.OIMDynamics)
)

// OptDynamics lists the selectable solver dynamics in stable order.
func OptDynamics() []string {
	dyns := ising.SolverDynamics()
	out := make([]string, len(dyns))
	for i, d := range dyns {
		out[i] = string(d)
	}
	return out
}

// OptScheduleKinds lists the annealing-schedule kinds in stable order.
func OptScheduleKinds() []string {
	return []string{engine.ScheduleLinear, engine.ScheduleGeometric, engine.ScheduleAdaptive}
}

// OptOptions configures a solve. The zero value selects Metropolis dynamics
// under a geometric schedule with defaults sized for Gset-scale instances.
type OptOptions struct {
	// Dynamics selects the solver: "brim", "metropolis" (default), "oim".
	Dynamics string
	// Schedule kind: "linear", "geometric" (default), "adaptive".
	Schedule string
	// Steps per restart (sweeps / checkpoints; default 200).
	Steps int
	// T0 and T1 are the control-ladder endpoints (defaults 2, 0.05).
	T0, T1 float64
	// Period and Reheat shape the adaptive schedule (defaults 4, 0.5).
	Period int
	Reheat float64
	// Restarts fans out this many seeded anneals (default 4); restart i
	// runs with seed Seed+i.
	Restarts int
	// Workers bounds the restart fan-out concurrency (0 = GOMAXPROCS).
	Workers int
	// Seed is the base seed (default 1).
	Seed uint64
}

func (o *OptOptions) fillDefaults() {
	if o.Dynamics == "" {
		o.Dynamics = DynamicsMetropolis
	}
	if o.Schedule == "" {
		o.Schedule = engine.ScheduleGeometric
	}
	if o.Steps == 0 {
		o.Steps = 200
	}
	if o.T0 == 0 {
		o.T0 = 2
	}
	if o.T1 == 0 {
		o.T1 = 0.05
	}
	if o.Period == 0 {
		o.Period = 4
	}
	if o.Reheat == 0 {
		o.Reheat = 0.5
	}
	if o.Restarts == 0 {
		o.Restarts = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// schedule assembles the engine schedule from the filled options.
func (o *OptOptions) schedule() (engine.Schedule, error) {
	switch o.Schedule {
	case engine.ScheduleLinear:
		return engine.LinearSchedule(o.Steps, o.T0, o.T1), nil
	case engine.ScheduleGeometric:
		return engine.GeometricSchedule(o.Steps, o.T0, o.T1), nil
	case engine.ScheduleAdaptive:
		return engine.AdaptiveSchedule(o.Steps, o.T0, o.T1, o.Period, o.Reheat), nil
	default:
		return engine.Schedule{}, fmt.Errorf("dsgl: unknown schedule %q (want %s)",
			o.Schedule, strings.Join(OptScheduleKinds(), "|"))
	}
}

// OptReport is the outcome of SolveMaxCut: the engine run plus the
// cut-space view of it.
type OptReport struct {
	Run *OptRun
	// Cut is the best cut value found ((TotalWeight - BestEnergy) / 2).
	Cut float64
	// Instance metadata.
	Instance string
	Nodes    int
	Edges    int
	Dynamics string
	Backend  string
	// Schedule is the schedule the run annealed under, defaults filled in.
	Schedule OptSchedule
}

// SolveMaxCut lowers the instance to an Ising model, anneals it under the
// configured dynamics with the engine's multi-restart fan-out, and reports
// the best cut. Deterministic in (instance, options) for any Workers value.
func SolveMaxCut(g *OptInstance, o OptOptions) (*OptReport, error) {
	o.fillDefaults()
	sched, err := o.schedule()
	if err != nil {
		return nil, err
	}
	m, err := g.ToIsing()
	if err != nil {
		return nil, err
	}
	solver, err := ising.NewSolver(m, ising.Dynamics(o.Dynamics), o.Seed)
	if err != nil {
		return nil, err
	}
	run, err := engine.NewOpt(solver).SolveFrom(sched, o.Seed, o.Restarts, o.Workers)
	if err != nil {
		return nil, err
	}
	return &OptReport{
		Run:      run,
		Cut:      g.CutFromEnergy(run.Best.Energy),
		Instance: g.Name,
		Nodes:    g.N,
		Edges:    g.Edges,
		Dynamics: o.Dynamics,
		Backend:  solver.Name(),
		Schedule: sched,
	}, nil
}

// GsetInstance generates a seeded Gset-style random MaxCut instance.
func GsetInstance(nodes, degree int, weighted bool, seed uint64) (*OptInstance, error) {
	return opt.RandomGraph(nodes, degree, weighted, seed)
}

// TorusInstance generates the rows×cols toroidal-lattice MaxCut instance.
func TorusInstance(rows, cols int) (*OptInstance, error) {
	return opt.Torus(rows, cols)
}

// LoadGsetInstance reads a Gset-format instance file.
func LoadGsetInstance(path string) (*OptInstance, error) {
	return opt.LoadGset(path)
}
