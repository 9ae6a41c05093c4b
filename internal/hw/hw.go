// Package hw provides the analytic hardware cost models behind the paper's
// Table I (chip comparison: BRIM vs DSPU vs DS-GL) and Table III (latency
// and energy versus GNN accelerators and GPUs).
//
// The chip model is parametric — per-spin, per-coupler, per-ring, and
// per-PE digital-control costs — calibrated so the BRIM configuration
// reproduces its published 2000-spin / 250 mW / 5 mm² figures; DSPU and
// DS-GL costs then follow from the same constants plus their architectural
// deltas (circulative resistor rings; PE tiling with CU crossbars and
// digital schedulers).
//
// The accelerator model is the paper's own methodology: "the latency of GNN
// accelerators is reported based on their theoretical peak performance with
// full utilization" — FLOPs divided by peak TFLOPS, energy as latency times
// typical power. The GPU row instead carries an effective-utilization
// factor, reflecting that measured GNN inference on GPUs runs far below
// peak (sparse aggregation, kernel-launch overheads).
package hw

import "fmt"

// CostModel holds the calibrated per-component constants (45 nm, matching
// the paper's Cadence technology node).
type CostModel struct {
	NodePowerUW    float64 // analog node (capacitor + comparator) power, µW
	RingPowerUW    float64 // circulative resistor ring addition per node, µW
	CouplerPowerUW float64 // programmable coupler power, µW
	PEDigitalMW    float64 // routers + schedulers + buffers per PE, mW
	CUPowerPerMW   float64 // CU crossbar power per coupler, µW

	NodeAreaMM2    float64 // per node, mm²
	RingAreaMM2    float64 // ring addition per node, mm²
	CouplerAreaMM2 float64 // per coupler, mm²
	PEDigitalAMM2  float64 // digital control area per PE, mm²
	CUAreaPerMM2   float64 // CU crossbar area per coupler, mm²
}

// DefaultCostModel returns the constants calibrated against BRIM's
// published 2000-spin figures (250 mW, 5 mm²).
func DefaultCostModel() CostModel {
	return CostModel{
		NodePowerUW:    25,    // 2000 × 25 µW = 50 mW
		RingPowerUW:    5,     // DSPU-2000 adds 10 mW
		CouplerPowerUW: 0.05,  // 2000² × 0.05 µW = 200 mW
		PEDigitalMW:    6,     // schedulers, routers, map buffers
		CUPowerPerMW:   0.05,  // same coupler technology inside CUs
		NodeAreaMM2:    5e-4,  // 2000 × 5e-4 = 1 mm²
		RingAreaMM2:    4e-5,  // DSPU-2000 adds ~0.08 mm²
		CouplerAreaMM2: 1e-6,  // 2000² × 1e-6 = 4 mm²
		PEDigitalAMM2:  0.002, //
		CUAreaPerMM2:   5e-7,  // mini crossbars pack denser than the main array
	}
}

// ChipCost summarizes one chip configuration, mirroring Table I's columns.
type ChipCost struct {
	Name     string
	Spins    int
	PowerMW  float64
	AreaMM2  float64
	Scalable bool
	DataType string
}

// String renders a Table-I-style row.
func (c ChipCost) String() string {
	scal := "No"
	if c.Scalable {
		scal = "Yes"
	}
	return fmt.Sprintf("%-12s %6d spins  %7.1f mW  %5.2f mm²  scalable=%-3s  %s",
		c.Name, c.Spins, c.PowerMW, c.AreaMM2, scal, c.DataType)
}

// BRIMCost models the baseline binary Ising machine with an all-to-all
// n x n coupler crossbar.
func (m CostModel) BRIMCost(spins int) ChipCost {
	s := float64(spins)
	return ChipCost{
		Name:     "BRIM",
		Spins:    spins,
		PowerMW:  (s*m.NodePowerUW + s*s*m.CouplerPowerUW) / 1000,
		AreaMM2:  s*m.NodeAreaMM2 + s*s*m.CouplerAreaMM2,
		Scalable: false,
		DataType: "Binary",
	}
}

// DSPUCost models the Real-Valued DSPU: BRIM plus a circulative resistor
// ring per node.
func (m CostModel) DSPUCost(spins int) ChipCost {
	base := m.BRIMCost(spins)
	s := float64(spins)
	return ChipCost{
		Name:     fmt.Sprintf("DSPU-%d", spins),
		Spins:    spins,
		PowerMW:  base.PowerMW + s*m.RingPowerUW/1000,
		AreaMM2:  base.AreaMM2 + s*m.RingAreaMM2,
		Scalable: false,
		DataType: "Real-Value",
	}
}

// DSGLCost models the Scalable DSPU: a grid of PEs with per-PE K x K local
// crossbars (instead of one global n x n crossbar), CU crossbars at mesh
// intersections, and per-PE digital control.
func (m CostModel) DSGLCost(spins, peCapacity, lanes int) ChipCost {
	if peCapacity <= 0 {
		panic("hw: non-positive PE capacity")
	}
	pes := (spins + peCapacity - 1) / peCapacity
	gridW := 1
	for gridW*gridW < pes {
		gridW++
	}
	gridH := (pes + gridW - 1) / gridW
	cus := (gridW + 1) * (gridH + 1)
	cuCouplers := float64(4*lanes*3*lanes) * float64(cus)

	s := float64(spins)
	k := float64(peCapacity)
	localCouplers := float64(pes) * k * k

	power := s*(m.NodePowerUW+m.RingPowerUW)/1000 +
		localCouplers*m.CouplerPowerUW/1000 +
		float64(pes)*m.PEDigitalMW +
		cuCouplers*m.CUPowerPerMW/1000
	area := s*(m.NodeAreaMM2+m.RingAreaMM2) +
		localCouplers*m.CouplerAreaMM2 +
		float64(pes)*m.PEDigitalAMM2 +
		cuCouplers*m.CUAreaPerMM2
	return ChipCost{
		Name:     "DS-GL",
		Spins:    spins,
		PowerMW:  power,
		AreaMM2:  area,
		Scalable: true,
		DataType: "Real-Value",
	}
}

// Platform describes one comparison hardware target of Table III.
type Platform struct {
	Name string
	// Works lists the accelerator papers evaluated on this platform.
	Works         string
	PeakTFLOPS    float64
	MaxPowerW     float64
	TypicalPowerW float64
	// Utilization scales effective throughput. Accelerators use 1.0 (the
	// paper's full-utilization assumption); the GPU uses a sub-percent
	// effective utilization typical of measured sparse GNN inference.
	Utilization float64
}

// Platforms returns Table III's five hardware platforms.
func Platforms() []Platform {
	return []Platform{
		{Name: "Stratix 10 SX", Works: "AWB-GCN/I-GCN", PeakTFLOPS: 2.7, MaxPowerW: 215, TypicalPowerW: 137, Utilization: 1},
		{Name: "Alveo U200", Works: "NTGAT", PeakTFLOPS: 1.4, MaxPowerW: 225, TypicalPowerW: 100, Utilization: 1},
		{Name: "Alveo U250", Works: "GraphAGILE", PeakTFLOPS: 2.8, MaxPowerW: 225, TypicalPowerW: 110, Utilization: 1},
		{Name: "Alveo U280", Works: "RACE", PeakTFLOPS: 2.1, MaxPowerW: 225, TypicalPowerW: 100, Utilization: 1},
		{Name: "NVIDIA A100", Works: "GPU (measured-like)", PeakTFLOPS: 156, MaxPowerW: 400, TypicalPowerW: 250, Utilization: 0.002},
	}
}

// LatencyUs returns the inference latency in microseconds of a model
// requiring flops floating-point operations on platform p.
func (p Platform) LatencyUs(flops float64) float64 {
	return flops / (p.PeakTFLOPS * p.Utilization * 1e12) * 1e6
}

// EnergyMJ returns the energy per inference in millijoules at the
// platform's typical power.
func (p Platform) EnergyMJ(flops float64) float64 {
	seconds := p.LatencyUs(flops) / 1e6
	return seconds * p.TypicalPowerW * 1000
}

// DSGLEnergyMJ converts a DS-GL annealing latency into energy at the DS-GL
// chip power (the paper computes DS-GL energy exactly this way: 0.15 µs ×
// 550 mW ≈ 9e-5 mJ).
func DSGLEnergyMJ(latencyUs, chipPowerMW float64) float64 {
	return latencyUs / 1e6 * chipPowerMW
}
