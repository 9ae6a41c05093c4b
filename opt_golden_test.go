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
	"dsgl/internal/mat"
	"dsgl/internal/opt"
	"dsgl/internal/rng"
)

// The opt golden fixture pins the Ising solver's trajectories bit for bit:
// every restart's best energy, best spins and the step that first reached
// them, for Metropolis on unweighted and weighted Gset-style graphs under
// all three schedules and on a model with fields whose entries sit on a
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

	m, err := quarterFieldModel(48, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, solveGoldenOpt(t, "fields-n48-quarter/metropolis/geometric", m, ising.MetropolisDynamics, engine.GeometricSchedule(200, 2, 0.05), 5, 4))

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

// quarterFieldModel draws a sparse model whose couplings and non-zero
// fields are all multiples of 0.25: node i couples to three random nodes
// with weights in ±{0.25, 0.5}, and h_i is in ±{0.25, …, 1}.
func quarterFieldModel(n int, seed uint64) (*ising.Model, error) {
	r := rng.New(seed)
	b := mat.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			if j := r.Intn(n); j != i {
				v := float64(r.Intn(2)+1) * 0.25
				if r.Intn(2) == 0 {
					v = -v
				}
				b.Add(i, j, v)
				b.Add(j, i, v)
			}
		}
	}
	h := make([]float64, n)
	for i := range h {
		h[i] = float64(r.Intn(4)+1) * 0.25
		if r.Intn(2) == 0 {
			h[i] = -h[i]
		}
	}
	return ising.NewModelCSR(b.Build(), h)
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
