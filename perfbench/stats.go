package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// minBeyond is the fewest samples a reported percentile may leave above
// it. A percentile with fewer is an extrapolation, not a measurement, so
// the run fails instead of reporting it.
const minBeyond = 10

// failedMs is the latency a failed op contributes to a percentile: it
// ranks above every completed op. JSON has no infinity, so a percentile
// that lands on a failed op reads this stand-in.
const failedMs = 1e9

// quantile returns the nearest-rank p-quantile of xs, which it sorts in
// place, and how many samples rank above it (0 and 0 for no samples).
func quantile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	r := int(math.Ceil(p*float64(len(xs)) - 1e-9))
	if r < 1 {
		r = 1
	}
	return xs[r-1], len(xs) - r
}

// median is the nearest-rank median of xs, leaving xs unsorted.
func median(xs []float64) float64 {
	v, _ := quantile(append([]float64(nil), xs...), 0.5)
	return v
}

// ratio is num/den, 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// memStats is the Go runtime's view of one phase boundary.
type memStats struct {
	numGC      uint32
	pauseNs    uint64
	totalAlloc uint64
}

func readMem() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{numGC: m.NumGC, pauseNs: m.PauseTotalNs, totalAlloc: m.TotalAlloc}
}

// gcDelta is the runtime's work between two phase boundaries, with
// allocation normalised per op.
type gcDelta struct {
	Cycles     float64 `json:"gc_cycles"`
	PauseMs    float64 `json:"gc_pause_ms"`
	AllocKBPer float64 `json:"alloc_kb_per_op"`
}

func memDelta(a, b memStats, ops int) gcDelta {
	return gcDelta{
		Cycles:     float64(b.numGC - a.numGC),
		PauseMs:    float64(b.pauseNs-a.pauseNs) / 1e6,
		AllocKBPer: ratio(float64(b.totalAlloc-a.totalAlloc)/1024, float64(ops)),
	}
}
