package dsgl

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"dsgl/internal/engine"
	"dsgl/internal/ising"
	"dsgl/internal/opt"
)

// The opt golden fixture pins the Ising solver's trajectories bit for bit:
// every restart's best energy, best spins and the step that first reached
// them, for Metropolis on unweighted and weighted Gset-style graphs under
// all three schedules, on QUBO-lowered instances whose couplings sit on a
// quarter-step grid, and for BRIM and OIM on a small torus. A change to the
// RNG stream, the proposal order, the acceptance test or the energy
// arithmetic shows up here. Regenerate only when an output change is
// intentional:
//
//	go test -run TestGoldenOpt -update-golden .
const goldenOptPath = "testdata/golden_opt.json"

// goldenOptCase is one solve configuration's pinned outcome: FNV-64a
// hashes over its restarts' energies (IEEE-754 bits), best spins and best
// steps, in restart order, plus the lowest energy in clear.
type goldenOptCase struct {
	Name       string `json:"name"`
	Restarts   int    `json:"restarts"`
	Energies   string `json:"energies"`
	Spins      string `json:"spins"`
	BestSteps  string `json:"best_steps"`
	BestEnergy string `json:"best_energy"`
}

// solveGoldenOpt runs restart r of the configuration alone with seed
// seed+r under sched.ForRestart(r), exactly as a multi-restart solve does,
// and hashes what each restart reports.
func solveGoldenOpt(t *testing.T, name string, m *ising.Model, dyn ising.Dynamics, sched engine.Schedule, seed uint64, restarts int) goldenOptCase {
	t.Helper()
	solver, err := ising.NewSolver(m, dyn, seed)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	eng := engine.NewOpt(solver)
	energies, spins, steps := fnv.New64a(), fnv.New64a(), fnv.New64a()
	var word [8]byte
	best := math.Inf(1)
	for r := 0; r < restarts; r++ {
		res, err := eng.SolveSeeded(sched.ForRestart(r), seed+uint64(r))
		if err != nil {
			t.Fatalf("%s restart %d: %v", name, r, err)
		}
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(res.Energy))
		energies.Write(word[:])
		for _, s := range res.Spins {
			spins.Write([]byte{byte(s)})
		}
		binary.LittleEndian.PutUint64(word[:], uint64(res.BestStep))
		steps.Write(word[:])
		best = math.Min(best, res.Energy)
	}
	hex := func(h hash.Hash64) string { return fmt.Sprintf("%016x", h.Sum64()) }
	return goldenOptCase{
		Name:       name,
		Restarts:   restarts,
		Energies:   hex(energies),
		Spins:      hex(spins),
		BestSteps:  hex(steps),
		BestEnergy: bits(best),
	}
}

// captureGoldenOpt regenerates every pinned solve from the current code.
func captureGoldenOpt(t *testing.T) []goldenOptCase {
	t.Helper()
	var cases []goldenOptCase
	schedules := []struct {
		name  string
		sched engine.Schedule
	}{
		// OptOptions' defaults: 200 steps from T0 = 2 down to T1 = 0.05,
		// adaptive period 4 and reheat 0.5.
		{"geometric", engine.GeometricSchedule(200, 2, 0.05)},
		{"linear", engine.LinearSchedule(200, 2, 0.05)},
		{"adaptive", engine.AdaptiveSchedule(200, 2, 0.05, 4, 0.5)},
	}
	for _, weighted := range []bool{false, true} {
		for seed := uint64(1); seed <= 3; seed++ {
			g, err := opt.RandomGraph(800, 6, weighted, seed)
			if err != nil {
				t.Fatal(err)
			}
			m, err := g.ToIsing()
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range schedules {
				name := fmt.Sprintf("%s/metropolis/%s", g.Name, s.name)
				cases = append(cases, solveGoldenOpt(t, name, m, ising.MetropolisDynamics, s.sched, seed, 4))
			}
		}
	}

	geo := engine.GeometricSchedule(200, 2, 0.05)
	g, err := opt.RandomGraph(40, 3, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	q, err := opt.GraphColoring(g, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := q.ToIsing()
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, solveGoldenOpt(t, "coloring-n40-k3/metropolis/geometric", m, ising.MetropolisDynamics, geo, 5, 4))

	g, err = opt.RandomGraph(48, 3, false, 6)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err = opt.Partition(g, 0.125)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, solveGoldenOpt(t, "partition-n48/metropolis/geometric", m, ising.MetropolisDynamics, geo, 6, 4))

	torus, err := opt.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	m, err = torus.ToIsing()
	if err != nil {
		t.Fatal(err)
	}
	short := engine.GeometricSchedule(20, 2, 0.05)
	for _, dyn := range []ising.Dynamics{ising.BRIMDynamics, ising.OIMDynamics} {
		cases = append(cases, solveGoldenOpt(t, "torus-6x6/"+string(dyn)+"/geometric", m, dyn, short, 3, 2))
	}
	return cases
}

func TestGoldenOpt(t *testing.T) {
	got := captureGoldenOpt(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenOptPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", goldenOptPath, len(got))
		return
	}
	data, err := os.ReadFile(goldenOptPath)
	if err != nil {
		t.Fatalf("read opt golden fixture (regenerate with -update-golden): %v", err)
	}
	var want []goldenOptCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decode opt golden fixture: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("opt golden case count diverges: got %d, fixture has %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("%s diverges from fixture:\n got  %+v\n want %+v", w.Name, got[i], w)
		}
	}
}
