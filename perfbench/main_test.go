package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json's metric lists to the
// tables the program prints from, name for name and unit for unit, and
// its workload list to the workloads the program knows.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	for _, c := range []struct {
		p      float64
		v      float64
		beyond int
	}{{0.5, 500, 500}, {0.95, 950, 50}, {0.99, 990, 10}, {0.999, 999, 1}, {1, 1000, 0}} {
		v, beyond := quantile(xs, c.p)
		if v != c.v || beyond != c.beyond {
			t.Errorf("p%g: got %v with %d beyond, want %v with %d", 100*c.p, v, beyond, c.v, c.beyond)
		}
	}
}

func TestLatenciesFailsThinTail(t *testing.T) {
	var log opLog
	for i := 0; i < 100; i++ {
		log.add(time.Duration(i)*time.Millisecond, float64(i))
	}
	rc := &runConfig{tail: 0.95, spans: 1}
	if err := newReport().latencies(rc, log, 100*time.Millisecond); err == nil {
		t.Fatal("p95 of 100 ops leaves 5 beyond, want an error")
	}
	rc = &runConfig{tail: 0.9, spans: 1}
	rep := newReport()
	if err := rep.latencies(rc, log, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rep.values["tail_ms"] != 89 || rep.values["p50_ms"] != 49 {
		t.Errorf("tail %v p50 %v, want 89 and 49", rep.values["tail_ms"], rep.values["p50_ms"])
	}
}

// TestSpanMedianRejectsOneBadSpan: a burst that slows every op of one span
// moves that span's tail, not the median over spans.
func TestSpanMedianRejectsOneBadSpan(t *testing.T) {
	var log opLog
	for i := 0; i < 500; i++ {
		v := float64(i % 100)
		if i >= 400 {
			v += 1000
		}
		log.add(time.Duration(i)*time.Millisecond, v)
	}
	rep := newReport()
	if err := rep.latencies(&runConfig{tail: 0.9, spans: 5}, log, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := rep.values["tail_ms"]; got != 89 {
		t.Errorf("tail %v, want 89", got)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Start: 15, End: 20},
	}}
	tr.fillSelf()
	want := []int64{100 - 60, 30 - 5, 30, 30, 5}
	for i, s := range tr.spans {
		if s.Self != want[i] {
			t.Errorf("span %d self %d, want %d", s.ID, s.Self, want[i])
		}
	}
}
