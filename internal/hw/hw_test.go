package hw

import (
	"math"
	"strings"
	"testing"
)

func TestBRIMCalibration(t *testing.T) {
	// The model must reproduce BRIM's published 2000-spin figures.
	c := DefaultCostModel().BRIMCost(2000)
	if math.Abs(c.PowerMW-250) > 1 {
		t.Fatalf("BRIM-2000 power %g mW, want ~250", c.PowerMW)
	}
	if math.Abs(c.AreaMM2-5) > 0.05 {
		t.Fatalf("BRIM-2000 area %g mm², want ~5", c.AreaMM2)
	}
	if c.Scalable || c.DataType != "Binary" {
		t.Fatalf("BRIM descriptor wrong: %+v", c)
	}
}

func TestDSPUMinorOverhead(t *testing.T) {
	// Table I: DSPU-2000 ≈ 260 mW / 5.1 mm² — a few percent over BRIM.
	m := DefaultCostModel()
	brim := m.BRIMCost(2000)
	dspu := m.DSPUCost(2000)
	if math.Abs(dspu.PowerMW-260) > 2 {
		t.Fatalf("DSPU-2000 power %g mW, want ~260", dspu.PowerMW)
	}
	if math.Abs(dspu.AreaMM2-5.1) > 0.05 {
		t.Fatalf("DSPU-2000 area %g mm², want ~5.1", dspu.AreaMM2)
	}
	powOverhead := dspu.PowerMW/brim.PowerMW - 1
	if powOverhead < 0 || powOverhead > 0.1 {
		t.Fatalf("DSPU power overhead %g, want small positive", powOverhead)
	}
	if dspu.DataType != "Real-Value" {
		t.Fatal("DSPU must be real-valued")
	}
}

func TestDSGLScaling(t *testing.T) {
	// Table I: DS-GL runs 4x the spins (8000) at roughly 2x power and
	// ~30% more area than BRIM-2000.
	m := DefaultCostModel()
	brim := m.BRIMCost(2000)
	dsgl := m.DSGLCost(8000, 250, 30)
	if dsgl.Spins != 8000 || !dsgl.Scalable {
		t.Fatalf("DS-GL descriptor wrong: %+v", dsgl)
	}
	powRatio := dsgl.PowerMW / brim.PowerMW
	if powRatio < 1.8 || powRatio > 2.6 {
		t.Fatalf("DS-GL/BRIM power ratio %g, want ~2.2", powRatio)
	}
	areaRatio := dsgl.AreaMM2 / brim.AreaMM2
	if areaRatio < 1.2 || areaRatio > 1.45 {
		t.Fatalf("DS-GL/BRIM area ratio %g, want ~1.3", areaRatio)
	}
}

func TestDSGLCheaperThanDenseScaling(t *testing.T) {
	// The whole point of tiling: an 8000-spin dense DSPU would cost ~16x
	// BRIM's coupler budget; DS-GL must be far below that.
	m := DefaultCostModel()
	dense := m.DSPUCost(8000)
	tiled := m.DSGLCost(8000, 250, 30)
	if tiled.PowerMW >= dense.PowerMW/2 {
		t.Fatalf("tiled power %g not clearly below dense %g", tiled.PowerMW, dense.PowerMW)
	}
	if tiled.AreaMM2 >= dense.AreaMM2/2 {
		t.Fatalf("tiled area %g not clearly below dense %g", tiled.AreaMM2, dense.AreaMM2)
	}
}

func TestDSGLPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultCostModel().DSGLCost(8000, 0, 30)
}

func TestPlatformsTableIII(t *testing.T) {
	ps := Platforms()
	if len(ps) != 5 {
		t.Fatalf("want 5 platforms, got %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
		if p.PeakTFLOPS <= 0 || p.TypicalPowerW <= 0 || p.Utilization <= 0 {
			t.Fatalf("platform %s has invalid specs: %+v", p.Name, p)
		}
		if p.TypicalPowerW > p.MaxPowerW {
			t.Fatalf("platform %s typical power above max", p.Name)
		}
	}
	for _, want := range []string{"Stratix 10 SX", "Alveo U200", "Alveo U250", "Alveo U280", "NVIDIA A100"} {
		if !names[want] {
			t.Fatalf("missing platform %s", want)
		}
	}
}

func TestLatencyEnergyModel(t *testing.T) {
	p := Platform{Name: "x", PeakTFLOPS: 1, TypicalPowerW: 100, MaxPowerW: 200, Utilization: 1}
	// 1e9 FLOPs on 1 TFLOPS = 1 ms = 1000 µs.
	if got := p.LatencyUs(1e9); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("latency %g µs, want 1000", got)
	}
	// 1 ms at 100 W = 0.1 J = 100 mJ.
	if got := p.EnergyMJ(1e9); math.Abs(got-100) > 1e-9 {
		t.Fatalf("energy %g mJ, want 100", got)
	}
}

func TestGPUSlowerThanPeakAccelerators(t *testing.T) {
	// With measured-like utilization, the A100 row must show worse
	// latency than the full-utilization accelerators despite higher peak
	// FLOPS — matching Table III's ordering.
	ps := Platforms()
	var gpu, fpga Platform
	for _, p := range ps {
		switch p.Name {
		case "NVIDIA A100":
			gpu = p
		case "Stratix 10 SX":
			fpga = p
		}
	}
	const flops = 1e9
	if gpu.LatencyUs(flops) <= fpga.LatencyUs(flops) {
		t.Fatal("GPU (measured-like) should be slower than peak-utilization FPGA")
	}
}

func TestDSGLEnergyMatchesPaperFormula(t *testing.T) {
	// 0.15 µs at 550 mW ≈ 8.25e-5 mJ (paper reports 9e-5 for covid).
	got := DSGLEnergyMJ(0.15, 550)
	if math.Abs(got-8.25e-5) > 1e-9 {
		t.Fatalf("DS-GL energy %g mJ", got)
	}
}

func TestChipCostString(t *testing.T) {
	s := DefaultCostModel().BRIMCost(2000).String()
	for _, want := range []string{"BRIM", "2000", "Binary"} {
		if !strings.Contains(s, want) {
			t.Fatalf("ChipCost string %q missing %q", s, want)
		}
	}
}

func TestSpeedupAndPowerHeadlines(t *testing.T) {
	// The abstract's headline: DS-GL at µs latency vs GNN at ms latency is
	// a >= 10³x speedup, at a power two orders of magnitude below GPUs.
	gpu := Platforms()[4]
	gnnLatencyUs := gpu.LatencyUs(3e9) // a ~3 GFLOP paper-scale GNN
	dsglLatencyUs := 1.0
	if gnnLatencyUs/dsglLatencyUs < 1e3 {
		t.Fatalf("speedup only %gx", gnnLatencyUs/dsglLatencyUs)
	}
	dsgl := DefaultCostModel().DSGLCost(8000, 250, 30)
	if gpu.TypicalPowerW/(dsgl.PowerMW/1000) < 100 {
		t.Fatalf("power ratio only %g", gpu.TypicalPowerW/(dsgl.PowerMW/1000))
	}
}
