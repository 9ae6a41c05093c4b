package dsgl

import (
	"math"
	"strings"
	"testing"

	"dsgl/internal/engine"
)

func TestStreamSessionEndToEnd(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, test := ds.Split()
	windows := test[:6]
	seed := model.Engine().BaseSeed()

	s := model.OpenStream()
	defer s.Close()
	var coldSteps, warmSteps, settled int
	for i, w := range windows {
		tk, err := s.Next(w)
		if err != nil {
			t.Fatal(err)
		}
		if tk.Warm != (i > 0) {
			t.Fatalf("tick %d: Warm=%v", i, tk.Warm)
		}
		if tk.Seed != seed+uint64(i) {
			t.Fatalf("tick %d seeded %d, want %d", i, tk.Seed, seed+uint64(i))
		}
		if len(tk.Values) != len(ds.UnknownIndices()) {
			t.Fatalf("tick %d predicted %d values", i, len(tk.Values))
		}
		for k, v := range tk.Values {
			if math.IsNaN(v) {
				t.Fatalf("tick %d value %d is NaN", i, k)
			}
		}
		if tk.Settled {
			settled++
			if i == 0 {
				coldSteps = tk.Steps
			} else if warmSteps == 0 || tk.Steps < warmSteps {
				warmSteps = tk.Steps
			}
		}
	}
	if got := s.Ticks(); got != uint64(len(windows)) {
		t.Fatalf("Ticks()=%d after %d windows", got, len(windows))
	}
	if settled < 2 {
		t.Fatalf("only %d/%d ticks settled; stream test needs settled ticks", settled, len(windows))
	}
	// The warm-start payoff: a warm tick settles in no more steps than the
	// cold first tick of the same stream (the datasets vary slowly window to
	// window, so the previous equilibrium is a strictly better init).
	if warmSteps > coldSteps {
		t.Fatalf("best warm tick took %d steps, cold took %d — warm start is not helping", warmSteps, coldSteps)
	}
	// Every window clamps the same node set, so the whole stream runs off
	// one plan: exactly one miss, all later ticks hits.
	if hits, misses := model.PlanCacheStats(); misses != 1 || hits < uint64(len(windows)-1) {
		t.Fatalf("plan cache %d hits / %d misses, want 1 miss across the stream", hits, misses)
	}
}

func TestStreamSessionValidationAndClose(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := model.OpenStream()
	bad := Window{Full: []float64{1, 2, 3}}
	if _, err := s.Next(bad); err == nil || !strings.Contains(err.Error(), "entries") {
		t.Fatalf("mis-sized window: got %v", err)
	}
	s.Close()
	s.Close() // idempotent
	_, test := ds.Split()
	if _, err := s.Next(test[0]); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Next after Close: got %v", err)
	}
}

// TestStreamRejectedTickLeavesNextTick: a tick rejected for its second
// observation (past the rail) must not leave its first one in the warm
// state. The first clamps a node that is free in the next window, so a
// leaked value would change that window's warm start: the next tick must
// match, bit for bit and step for step, the same stream without the
// rejected tick.
func TestStreamRejectedTickLeavesNextTick(t *testing.T) {
	ds := GenerateDataset("traffic", DatasetConfig{N: 16, Seed: 7})
	model, err := Train(ds, Options{Density: 0.15, PECapacity: 24, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	free := ds.UnknownIndices()[0]
	next, err := model.WindowObservations(ds.Window(1))
	if err != nil {
		t.Fatal(err)
	}
	run := func(reject bool) *engine.Result {
		s := model.OpenStream()
		defer s.Close()
		if _, err := s.Next(ds.Window(0)); err != nil {
			t.Fatal(err)
		}
		if reject {
			bad := []engine.Observation{{Index: free, Value: 0.5}, {Index: next[0].Index, Value: 5}}
			if _, _, err := s.NextObservations(bad); err == nil || !strings.Contains(err.Error(), "exceeds rail") {
				t.Fatalf("tick past the rail: got %v", err)
			}
		}
		res, _, err := s.NextObservations(next)
		if err != nil {
			t.Fatal(err)
		}
		return res.Detach()
	}
	want, got := run(false), run(true)
	diff := 0
	for i := range want.Voltage {
		if math.Float64bits(got.Voltage[i]) != math.Float64bits(want.Voltage[i]) {
			diff++
		}
	}
	if diff != 0 || got.Steps != want.Steps {
		t.Fatalf("after a rejected tick %d of %d voltages differ and the tick took %d steps, want 0 and %d",
			diff, len(want.Voltage), got.Steps, want.Steps)
	}
}
