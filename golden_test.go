package dsgl

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The golden-voltage fixture pins the scalable backend's inference outputs
// bit-for-bit across refactors: the engine extraction (unified inference
// core, PR 4) is contractually forbidden from changing the RNG stream or
// the floating-point operation order of the scalable path, and this test is
// the regression tripwire. The fixture was captured on main BEFORE the
// engine refactor; regenerate only when an output change is intentional:
//
//	go test -run TestGoldenVoltages -update-golden .
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_voltages.json from the current code")

const goldenPath = "testdata/golden_voltages.json"

// goldenWindow is one probe window's pinned inference outcome. Voltages and
// energy are stored as hex-encoded IEEE-754 bit patterns so the comparison
// is exact, never tolerance-based.
type goldenWindow struct {
	Voltage   []string `json:"voltage"`
	LatencyNs string   `json:"latency_ns"`
	Settled   bool     `json:"settled"`
	Energy    string   `json:"energy"`
}

// goldenRun is one (dataset, config) combination's pinned outcomes.
type goldenRun struct {
	Name    string         `json:"name"`
	Mode    string         `json:"mode"`
	Windows []goldenWindow `json:"windows"`
}

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func bitsVec(v []float64) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = bits(x)
	}
	return out
}

// goldenProbeWindows is how many test windows each configuration pins.
const goldenProbeWindows = 2

// captureGoldenRuns regenerates every pinned configuration from the current
// code. The scalable configurations cover both co-annealing regimes (pure
// spatial and temporal+spatial via a starved lane budget); the dense run
// pins the single-PE DSPU path DenseInfer drives.
func captureGoldenRuns(t *testing.T) []goldenRun {
	t.Helper()
	var runs []goldenRun

	scalableCase := func(name string, opts Options) {
		ds := tinyDataset(t, "traffic")
		model, err := Train(ds, opts)
		if err != nil {
			t.Fatalf("%s: train: %v", name, err)
		}
		_, test := ds.Split()
		seed := model.Opts.Seed + 2 // the machine seed Train derives
		run := goldenRun{Name: name, Mode: model.Machine.Stats().Mode.String()}
		for i := 0; i < goldenProbeWindows; i++ {
			obs, err := model.windowObservations(test[i])
			if err != nil {
				t.Fatalf("%s: window %d: %v", name, i, err)
			}
			res, err := model.Machine.Engine().InferSeeded(obs, seed+uint64(i))
			if err != nil {
				t.Fatalf("%s: infer %d: %v", name, i, err)
			}
			run.Windows = append(run.Windows, goldenWindow{
				Voltage:   bitsVec(res.Voltage),
				LatencyNs: bits(res.LatencyNs),
				Settled:   res.Settled,
				Energy:    bits(res.Energy),
			})
		}
		runs = append(runs, run)
	}

	spatial := tinyOptions()
	scalableCase("traffic-spatial", spatial)

	temporal := tinyOptions()
	temporal.Lanes = 2 // starve the portals so slices time-multiplex
	scalableCase("traffic-temporal", temporal)

	// Dense single-PE path: the pre-engine DenseInfer entry point.
	ds := tinyDataset(t, "traffic")
	dense, err := TrainDense(ds, tinyOptions())
	if err != nil {
		t.Fatalf("dense: train: %v", err)
	}
	_, test := ds.Split()
	run := goldenRun{Name: "traffic-dense", Mode: "dense"}
	for i := 0; i < goldenProbeWindows; i++ {
		p, err := DenseInfer(ds, dense, test[i], 9+uint64(i))
		if err != nil {
			t.Fatalf("dense: infer %d: %v", i, err)
		}
		run.Windows = append(run.Windows, goldenWindow{
			Voltage:   bitsVec(p.Values),
			LatencyNs: bits(p.LatencyUs),
		})
	}
	runs = append(runs, run)
	return runs
}

func TestGoldenVoltages(t *testing.T) {
	got := captureGoldenRuns(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d runs)", goldenPath, len(got))
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden fixture (regenerate with -update-golden): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decode golden fixture: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden run count diverges: got %d, fixture has %d", len(got), len(want))
	}
	for r := range want {
		w, g := want[r], got[r]
		if g.Name != w.Name {
			t.Fatalf("run %d name diverges: %q vs fixture %q", r, g.Name, w.Name)
		}
		if g.Mode != w.Mode {
			t.Errorf("%s: mode diverges: %q vs fixture %q", w.Name, g.Mode, w.Mode)
		}
		if len(g.Windows) != len(w.Windows) {
			t.Fatalf("%s: window count diverges: %d vs %d", w.Name, len(g.Windows), len(w.Windows))
		}
		for i := range w.Windows {
			ww, gw := w.Windows[i], g.Windows[i]
			if len(gw.Voltage) != len(ww.Voltage) {
				t.Fatalf("%s window %d: voltage length %d vs fixture %d", w.Name, i, len(gw.Voltage), len(ww.Voltage))
			}
			diverged, first := 0, -1
			for k := range ww.Voltage {
				if gw.Voltage[k] != ww.Voltage[k] {
					if first < 0 {
						first = k
					}
					diverged++
				}
			}
			if diverged > 0 {
				t.Errorf("%s window %d: %d voltages diverge from fixture (first at node %d: %s vs %s)",
					w.Name, i, diverged, first, gw.Voltage[first], ww.Voltage[first])
			}
			if gw.LatencyNs != ww.LatencyNs {
				t.Errorf("%s window %d: latency bits diverge: %s vs %s", w.Name, i, gw.LatencyNs, ww.LatencyNs)
			}
			if gw.Settled != ww.Settled {
				t.Errorf("%s window %d: settled diverges: %v vs %v", w.Name, i, gw.Settled, ww.Settled)
			}
			if gw.Energy != ww.Energy {
				t.Errorf("%s window %d: energy bits diverge: %s vs %s", w.Name, i, gw.Energy, ww.Energy)
			}
		}
	}
}
