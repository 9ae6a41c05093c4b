package main

import (
	"strings"
	"testing"
)

// optRow is a realistic BenchmarkOptSolve result line: standard columns plus
// the three quality metrics the benchmark reports.
const optRow = "BenchmarkOptSolve/metropolis-8 \t       5\t  21998640 ns/op\t        -611 best-energy\t         771.5 cut\t         2 restarts-to-best\t   41104 B/op\t      29 allocs/op\n"

// mustRow parses a result row the test knows to be well-formed.
func mustRow(t *testing.T, line string) row {
	t.Helper()
	r, ok := parseRow(line)
	if !ok {
		t.Fatalf("line %q is not a result row", line)
	}
	return r
}

func TestParseCustomMetricsOptUnits(t *testing.T) {
	got := customMetrics(mustRow(t, optRow))
	want := map[string]float64{
		"best-energy":      -611,
		"cut":              771.5,
		"restarts-to-best": 2,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d custom metrics, want %d: %+v", len(got), len(want), got)
	}
	for _, cm := range got {
		if cm.bench != "BenchmarkOptSolve/metropolis-8" {
			t.Errorf("bench name %q", cm.bench)
		}
		v, ok := want[cm.unit]
		if !ok {
			t.Errorf("unexpected unit %q (standard columns must not leak through)", cm.unit)
			continue
		}
		if cm.value != v {
			t.Errorf("%s = %g, want %g", cm.unit, cm.value, v)
		}
	}
}

func TestParseCustomMetricsRejectsNonResultRows(t *testing.T) {
	for _, line := range []string{
		"BenchmarkOptSolve/metropolis-8 \t       5\t  not-a-number ns/op\n",
		"BenchmarkOptSolve/metropolis-8#01 \t 5\t 100 ns/op\t 1 best-energy\n", // duplicate re-run
		"=== RUN   TestSomething\n",
		"ok  \tdsgl\t1.2s\n",
	} {
		if got, ok := parseRow(line); ok {
			t.Errorf("line %q parsed to %+v, want no row", line, got)
		}
	}
}

func TestOptSolveSummary(t *testing.T) {
	o := newOptSolve()
	o.add(mustRow(t, optRow))
	o.add(mustRow(t, "BenchmarkOptSolve/brim-8 \t       3\t  9998640 ns/op\t        -580.25 best-energy\t         756 cut\t         1 restarts-to-best\n"))
	o.add(mustRow(t, "BenchmarkOptSolve/brim-8 \t       3\t  11111111 ns/op\t        -1 best-energy\t -1 cut\t -1 restarts-to-best\n")) // repeat: first wins
	o.add(mustRow(t, "BenchmarkInferBatch/spatial/workers=1-8 \t 10\t 100 ns/op\n"))                                                    // not an opt row
	if o.count() != 2 {
		t.Fatalf("count = %d, want 2", o.count())
	}
	var sb strings.Builder
	if !o.report(&sb, true) {
		t.Fatalf("well-formed rows must pass the guard:\n%s", sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"metropolis-8", "best energy -611", "cut 771.5", "restarts-to-best 2",
		"brim-8", "best energy -580.25", "restarts-to-best 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestOptSolveGuardFlagsMissingMetrics(t *testing.T) {
	o := newOptSolve()
	// An OptSolve row without the reported quality metrics: a benchmark that
	// stopped calling ReportMetric.
	o.add(mustRow(t, "BenchmarkOptSolve/oim-8 \t       3\t  9998640 ns/op\n"))
	var sb strings.Builder
	if o.report(&sb, true) {
		t.Fatal("guarded report must fail on a metric-less OptSolve row")
	}
	if !o.report(&sb, false) {
		t.Fatal("unguarded report must not fail")
	}
}

// TestBatchGuardSkipsWhenOptRowsPresent pins the BENCH_opt.json replay
// semantics: a guarded stream with OptSolve rows but no InferBatch pairs
// skips the batch guard instead of failing, while a guarded stream with
// neither still fails loudly.
func TestBatchGuardSkipsWhenOptRowsPresent(t *testing.T) {
	b := newBatchScaling()
	var sb strings.Builder
	if b.report(&sb, true, false) != true {
		t.Fatal("batch guard must pass when not required (opt rows present)")
	}
	if !strings.Contains(sb.String(), "batch guard skipped") {
		t.Fatalf("skip must be reported:\n%s", sb.String())
	}
	sb.Reset()
	if b.report(&sb, true, true) {
		t.Fatal("batch guard must fail when required and no pairs were found")
	}
}

// TestBatchGuardStillTripsOnAntiScaling makes sure the opt-aware skip did
// not weaken the original tripwire.
func TestBatchGuardStillTripsOnAntiScaling(t *testing.T) {
	b := newBatchScaling()
	b.add(mustRow(t, "BenchmarkInferBatch/spatial/workers=1-8 \t 10\t 1000 ns/op\n"))
	b.add(mustRow(t, "BenchmarkInferBatch/spatial/workers=4-8 \t 10\t 2000 ns/op\n")) // 0.5x: anti-scaling
	var sb strings.Builder
	if b.report(&sb, true, false) {
		t.Fatal("anti-scaling regime must fail the guard even when pairs are optional")
	}
	if !strings.Contains(sb.String(), "ANTI-SCALING") {
		t.Fatalf("verdict missing:\n%s", sb.String())
	}
}

// TestBatchGuardSkipsOnePGroups: a group without a -N suffix ran on one
// P, where no speedup is possible, so its ratio is printed but never
// guarded; a guarded stream whose only pairs are one-P ones still fails.
func TestBatchGuardSkipsOnePGroups(t *testing.T) {
	b := newBatchScaling()
	b.add(mustRow(t, "BenchmarkInferBatch/spatial/workers=1 \t 10\t 1000 ns/op\n"))
	b.add(mustRow(t, "BenchmarkInferBatch/spatial/workers=4 \t 10\t 2000 ns/op\n")) // 0.5x at one P
	var sb strings.Builder
	if b.report(&sb, true, true) {
		t.Fatalf("a guarded stream with no pair at two or more Ps must fail:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "0.50x  (one P, unguarded)") {
		t.Fatalf("one-P ratio must be printed unguarded:\n%s", sb.String())
	}
	b.add(mustRow(t, "BenchmarkInferBatch/spatial/workers=1-2 \t 10\t 1000 ns/op\n"))
	b.add(mustRow(t, "BenchmarkInferBatch/spatial/workers=4-2 \t 10\t 600 ns/op\n"))
	sb.Reset()
	if !b.report(&sb, true, true) {
		t.Fatalf("a one-P anti-scaling ratio must not fail the guard:\n%s", sb.String())
	}
	if strings.Contains(sb.String(), "ANTI-SCALING") || !strings.Contains(sb.String(), "spatial-2") {
		t.Fatalf("only the two-P group is guarded:\n%s", sb.String())
	}
}
