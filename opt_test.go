package dsgl

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestSolveMaxCutLargeGsetAllDynamics is the acceptance gate for the
// optimization workload family: an 800-node Gset-style instance must solve
// through the engine under every selectable dynamics — the continuous BRIM
// and OIM paths included — and report a self-consistent cut well above the
// random-bisection baseline (half the total weight).
func TestSolveMaxCutLargeGsetAllDynamics(t *testing.T) {
	if testing.Short() {
		t.Skip("800-node anneal is a long test")
	}
	g, err := GsetInstance(800, 5, false, 11)
	if err != nil {
		t.Fatal(err)
	}
	half := g.TotalWeight() / 2
	cases := []struct {
		dynamics string
		steps    int
	}{
		{DynamicsMetropolis, 120},
		{DynamicsBRIM, 20},
		{DynamicsOIM, 20},
	}
	for _, c := range cases {
		t.Run(c.dynamics, func(t *testing.T) {
			rep, err := SolveMaxCut(g, OptOptions{
				Dynamics: c.dynamics,
				Steps:    c.steps,
				Restarts: 2,
				Workers:  2,
				Seed:     3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Nodes != 800 || rep.Run.Restarts != 2 {
				t.Fatalf("report shape wrong: %+v", rep)
			}
			// The reported cut must be derived from the reported energy, and
			// the spins must reproduce it directly.
			if direct := g.CutValue(rep.Run.Best.Spins); direct != rep.Cut {
				t.Fatalf("reported cut %g != cut of reported spins %g", rep.Cut, direct)
			}
			// Any functioning annealer clears the E[cut] = TW/2 baseline of a
			// uniform random partition by a wide margin.
			if rep.Cut <= 1.05*half {
				t.Errorf("%s cut %g does not clear the random baseline %g", c.dynamics, rep.Cut, half)
			}
			t.Logf("%s: cut %g of total %g", c.dynamics, rep.Cut, g.TotalWeight())
		})
	}
}

// TestSolveMaxCutWorkerBitIdentity pins the determinism contract at the API
// surface: the same options with different Workers values yield bit-identical
// runs (spins, energies, traces). Runs under -race in CI.
func TestSolveMaxCutWorkerBitIdentity(t *testing.T) {
	g, err := GsetInstance(96, 4, true, 21)
	if err != nil {
		t.Fatal(err)
	}
	for _, dyn := range OptDynamics() {
		base := OptOptions{Dynamics: dyn, Schedule: "adaptive", Steps: 25, Restarts: 6, Seed: 5}
		solo := base
		solo.Workers = 1
		fan := base
		fan.Workers = 4
		a, err := SolveMaxCut(g, solo)
		if err != nil {
			t.Fatal(err)
		}
		b, err := SolveMaxCut(g, fan)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Run, b.Run) {
			t.Errorf("%s: runs diverge between 1 and 4 workers", dyn)
		}
		if a.Cut != b.Cut {
			t.Errorf("%s: cut diverges: %v vs %v", dyn, a.Cut, b.Cut)
		}
	}
}

// TestSolveMaxCutOptionValidation covers the error surface of the options.
func TestSolveMaxCutOptionValidation(t *testing.T) {
	g, err := TorusInstance(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveMaxCut(g, OptOptions{Dynamics: "bogus"}); err == nil {
		t.Error("unknown dynamics must error")
	}
	if _, err := SolveMaxCut(g, OptOptions{Schedule: "bogus"}); err == nil {
		t.Error("unknown schedule must error")
	}
	// Defaults alone must solve.
	rep, err := SolveMaxCut(g, OptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dynamics != DynamicsMetropolis || rep.Run.Restarts != 4 {
		t.Fatalf("defaults not applied: %+v", rep)
	}
}

// TestSolveMaxCutRejectsNonFiniteEdge: an instance whose adjacency carries
// a non-finite weight (both orientations, so it is still symmetric) must
// fail with an error naming the entry, not panic on a run in which no
// restart reached a comparable energy.
func TestSolveMaxCutRejectsNonFiniteEdge(t *testing.T) {
	for _, w := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		g, err := GsetInstance(16, 3, false, 2)
		if err != nil {
			t.Fatal(err)
		}
		j := g.W.ColIdx[0]
		g.W.Val[0] = w
		for p := g.W.RowPtr[j]; p < g.W.RowPtr[j+1]; p++ {
			if g.W.ColIdx[p] == 0 {
				g.W.Val[p] = w
			}
		}
		for _, dyn := range OptDynamics() {
			rep, err := SolveMaxCut(g, OptOptions{Dynamics: dyn, Steps: 10, Restarts: 2, Workers: 1})
			if err == nil {
				t.Errorf("weight %v, %s: solved (cut %v), want an error", w, dyn, rep.Cut)
				continue
			}
			if want := fmt.Sprintf("W[0][%d] = %g is not finite", j, -w); !strings.Contains(err.Error(), want) {
				t.Errorf("weight %v, %s: error %q does not name the entry (%q)", w, dyn, err, want)
			}
		}
	}
}
