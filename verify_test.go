package dsgl

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"dsgl/internal/engine"
)

func findCheck(t *testing.T, rep *VerifyReport, invariant string) *VerifyCheck {
	t.Helper()
	for i := range rep.Checks {
		if rep.Checks[i].Invariant == invariant {
			return &rep.Checks[i]
		}
	}
	t.Fatalf("report has no %q check", invariant)
	return nil
}

// goldenVerifyPath pins every regime's rendered verify report: check
// order, skip reasons and detail strings. Regenerate only when a report
// change is intentional:
//
//	go test -run TestVerifyAllInvariantsGreen -update-golden .
const goldenVerifyPath = "testdata/golden_verify.txt"

// readGoldenVerify splits the golden report file into its "== regime =="
// sections.
func readGoldenVerify(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenVerifyPath)
	if err != nil {
		t.Fatalf("read golden verify reports (regenerate with -update-golden): %v", err)
	}
	sections := make(map[string]string)
	name := ""
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " ==\n") {
			name = strings.TrimSuffix(strings.TrimPrefix(line, "== "), " ==\n")
			continue
		}
		sections[name] += line
	}
	return sections
}

// TestVerifyAllInvariantsGreen runs the full harness against freshly
// trained models in every co-annealing regime and on the dense backend. A
// healthy model must come back clean, and each regime must skip exactly
// the checks whose preconditions it breaks: analog noise voids the
// per-step Lyapunov argument, a disabled temporal dimension forces
// coupling drops so EffectiveJ == Tuned.J no longer applies. Every report
// must also render
// exactly as pinned in goldenVerifyPath. Workers is set explicitly because
// the snapshot size in the round-trip detail encodes it.
func TestVerifyAllInvariantsGreen(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		skipped []string
	}{
		{"spatial", tinyOptions(), nil},
		{"temporal", func() Options { o := tinyOptions(); o.Lanes = 4; return o }(), nil},
		{"temporal-disabled",
			func() Options { o := tinyOptions(); o.Lanes = 4; o.TemporalDisabled = true; return o }(),
			[]string{invLosslessCompile}},
		{"noise",
			func() Options { o := tinyOptions(); o.NodeNoise = 0.05; return o }(),
			[]string{invEnergyDescent, invWarmStartFixedPoint}},
		{"dense",
			func() Options { o := tinyOptions(); o.Backend = BackendDense; return o }(),
			nil},
	}
	var golden map[string]string
	if !*updateGolden {
		golden = readGoldenVerify(t)
	}
	var out strings.Builder
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := tinyDataset(t, "traffic")
			tc.opts.Workers = 2
			model, err := Train(ds, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := model.Verify(VerifyOptions{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			rep.Fprint(&sb)
			fmt.Fprintf(&out, "== %s ==\n%s", tc.name, sb.String())
			if !rep.Ok() {
				t.Fatalf("verification failed on a healthy model:\n%s", sb.String())
			}
			if want, ok := golden[tc.name]; !*updateGolden && (!ok || want != sb.String()) {
				t.Errorf("report diverges from %s:\n--- got\n%s--- want\n%s", goldenVerifyPath, sb.String(), want)
			}
			if len(rep.Checks) != 9 {
				t.Fatalf("report has %d checks, want all 9 invariants", len(rep.Checks))
			}
			// The optimization invariant is model-independent and must never
			// skip — it actively compares two worker counts in every regime.
			if c := findCheck(t, rep, invOptBestEnergyMonotone); c.Skipped || !c.Passed() {
				t.Fatalf("opt-best-energy-monotone not green: %+v", c)
			}
			// The K=1 decomposition identity is a bit-identity claim that
			// holds in every regime (the twin shares the noise options), so
			// it must actively compare and come back clean.
			if c := findCheck(t, rep, invDecomposedK1Identity); c.Skipped || !c.Passed() {
				t.Fatalf("decomposed-k1-identity not green: %+v", c)
			}
			// The plan/naive identity must hold in every regime, noise
			// included (the plan path replicates the noise stream).
			if c := findCheck(t, rep, invPlanNaiveIdentity); c.Skipped || !c.Passed() {
				t.Fatalf("plan-naive-identity not green: %+v", c)
			}
			mustSkip := make(map[string]bool, len(tc.skipped))
			for _, inv := range tc.skipped {
				mustSkip[inv] = true
			}
			for i := range rep.Checks {
				c := &rep.Checks[i]
				if mustSkip[c.Invariant] && !c.Skipped {
					t.Errorf("%s: expected SKIP, got %q", c.Invariant, c.Detail)
				}
				if c.Invariant == invLosslessCompile && !mustSkip[c.Invariant] && c.Skipped {
					t.Errorf("%s unexpectedly skipped: %s", c.Invariant, c.Detail)
				}
				// The warm-start check must actively compare whenever noise
				// does not void it.
				if c.Invariant == invWarmStartFixedPoint && !mustSkip[c.Invariant] && c.Skipped {
					t.Errorf("%s unexpectedly skipped: %s", c.Invariant, c.Detail)
				}
			}
		})
	}
	if *updateGolden {
		if err := os.WriteFile(goldenVerifyPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d regimes)", goldenVerifyPath, len(cases))
	}
}

// TestVerifyDetectsTamperedCoupling mutates one realized coupling in
// Tuned.J after compilation, breaking the model's internal consistency.
// The harness must flag it twice: the machine no longer realizes Tuned.J
// (lossless compilation), and a snapshot of the tampered parameters loads
// into a machine that disagrees with the in-memory one (round trip).
func TestVerifyDetectsTamperedCoupling(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if model.Machine.Stats().DroppedCouplings != 0 {
		t.Fatal("test premise: tiny spatial model should compile losslessly")
	}
	n := model.Tuned.Dim()
	ti, tj := -1, -1
	for i := 0; i < n && ti < 0; i++ {
		for j := 0; j < n; j++ {
			if model.Tuned.J.At(i, j) != 0 {
				ti, tj = i, j
				break
			}
		}
	}
	if ti < 0 {
		t.Fatal("no nonzero coupling to tamper with")
	}
	model.Tuned.J.Set(ti, tj, model.Tuned.J.At(ti, tj)*2+0.25)

	rep, err := Verify(model, VerifyOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("Verify passed a model whose Tuned.J was tampered with")
	}
	if c := findCheck(t, rep, invLosslessCompile); c.Passed() || c.Skipped {
		t.Fatalf("lossless-compile check did not flag the tampered coupling: %+v", c)
	}
	if c := findCheck(t, rep, invSnapshotRoundTrip); len(c.Violations) == 0 {
		t.Fatal("round-trip check did not flag the snapshot/in-memory divergence")
	}
	// The untampered invariants still hold: the running machine is
	// internally consistent even though it no longer matches Tuned.J.
	if c := findCheck(t, rep, invSeqParIdentity); !c.Passed() {
		t.Fatalf("seq/par identity should be unaffected by parameter tampering: %+v", c)
	}
}

// TestVerifyFlagsRoundTripStatsDivergence: a snapshot that rebuilds a
// machine with different compilation statistics fails the round trip.
// Editing Opts.Lanes after training makes Save record a lane budget the
// running machine was not compiled under.
func TestVerifyFlagsRoundTripStatsDivergence(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	model.Opts.Lanes = 2
	rep, err := Verify(model, VerifyOptions{Windows: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := findCheck(t, rep, invSnapshotRoundTrip)
	for _, v := range c.Violations {
		if strings.Contains(v.Detail, "compilation stats diverge") {
			return
		}
	}
	t.Fatalf("round-trip check did not flag the stats divergence: %+v", c)
}

func TestVerifyRejectsUntrainedModel(t *testing.T) {
	if _, err := Verify(nil, VerifyOptions{}); err == nil {
		t.Fatal("expected error for nil model")
	}
	if _, err := Verify(&Model{}, VerifyOptions{}); err == nil {
		t.Fatal("expected error for model without a machine")
	}
}

// TestVerifyWindowCapRespected keeps the probe budget honest: Windows=3
// must probe exactly 3 windows even though the test split is larger.
func TestVerifyWindowCapRespected(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, test := ds.Split()
	if len(test) <= 3 {
		t.Fatalf("test split too small (%d) to exercise the cap", len(test))
	}
	rep, err := Verify(model, VerifyOptions{Windows: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatal("verification failed on a healthy model")
	}
	c := findCheck(t, rep, invSeqParIdentity)
	if !strings.Contains(c.Detail, "3 windows") {
		t.Fatalf("seq/par check detail %q, want a 3-window probe set", c.Detail)
	}
	// Only the first two probes record energy traces.
	e := findCheck(t, rep, invEnergyDescent)
	if !strings.Contains(e.Detail, "2 probe anneals") {
		t.Fatalf("energy check detail %q, want 2 probe anneals", e.Detail)
	}
}

// TestVerifyCapsViolationsPerCheck tampers with 12 realized couplings: the
// lossless-compile check lists the first 8 divergences and counts the rest
// in one trailing line.
func TestVerifyCapsViolationsPerCheck(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	tampered := 0
	for i, v := range model.Tuned.J.Data {
		if v != 0 && tampered < 12 {
			model.Tuned.J.Data[i] = v*2 + 0.25
			tampered++
		}
	}
	if tampered < 12 {
		t.Fatalf("only %d nonzero couplings to tamper with", tampered)
	}
	rep, err := Verify(model, VerifyOptions{Windows: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := findCheck(t, rep, invLosslessCompile)
	if len(c.Violations) != maxViolationsPerCheck+1 {
		t.Fatalf("lossless-compile lists %d violations, want %d and a summary: %+v",
			len(c.Violations), maxViolationsPerCheck, c.Violations)
	}
	for _, v := range c.Violations[:maxViolationsPerCheck] {
		if v.Invariant != invLosslessCompile || !strings.HasPrefix(v.Detail, "EffectiveJ vs Tuned.J[") {
			t.Fatalf("unexpected violation %+v", v)
		}
	}
	if last := c.Violations[maxViolationsPerCheck]; last.Detail != "... and 4 more violations" || last.Invariant != invLosslessCompile {
		t.Fatalf("summary line %+v, want \"... and 4 more violations\"", last)
	}
}

// TestVerifyOneTestWindow: a test split that holds a single window gives
// one energy-traced probe and no warm-started tick to compare.
func TestVerifyOneTestWindow(t *testing.T) {
	ds := GenerateDataset("traffic", DatasetConfig{N: 16, T: 33, Seed: 7})
	if _, test := ds.Split(); len(test) != 1 {
		t.Fatalf("test premise: split holds %d test windows, want 1", len(test))
	}
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(model, VerifyOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e := findCheck(t, rep, invEnergyDescent); !strings.Contains(e.Detail, "1 probe anneals") {
		t.Fatalf("energy check detail %q, want 1 probe anneals", e.Detail)
	}
	if w := findCheck(t, rep, invWarmStartFixedPoint); !w.Skipped {
		t.Fatalf("warm-start check with one probe window: %+v, want SKIP", w)
	}
}

// TestVerifyLoadedModel: a model loaded from its own snapshot verifies to
// the same report, byte for byte, on both backends. Load sets Workers to
// GOMAXPROCS, so the trained model uses that too.
func TestVerifyLoadedModel(t *testing.T) {
	for _, backend := range []string{BackendScalable, BackendDense} {
		t.Run(backend, func(t *testing.T) {
			ds := tinyDataset(t, "traffic")
			opts := tinyOptions()
			opts.Backend = backend
			opts.Workers = runtime.GOMAXPROCS(0)
			model, err := Train(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := model.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf, ds)
			if err != nil {
				t.Fatal(err)
			}
			render := func(m *Model) string {
				t.Helper()
				rep, err := m.Verify(VerifyOptions{Windows: 4})
				if err != nil {
					t.Fatal(err)
				}
				var sb strings.Builder
				rep.Fprint(&sb)
				return sb.String()
			}
			want, got := render(model), render(loaded)
			if got != want {
				t.Fatalf("loaded model's report diverges:\n--- loaded\n%s--- in memory\n%s", got, want)
			}
		})
	}
}

// TestVerifyReportOkAndFprint: skipped and passing checks leave a report
// Ok, one violation fails it, and the rendering names every status.
func TestVerifyReportOkAndFprint(t *testing.T) {
	r := VerifyReport{Target: "traffic", Checks: []VerifyCheck{
		{Invariant: invEnergyDescent, Name: "monotone energy descent", Detail: "3 probes"},
		{Invariant: invSettleResidual, Name: "equilibrium residual", Skipped: true, Detail: "no settled probe"},
	}}
	if !r.Ok() {
		t.Fatal("report with pass+skip must be Ok")
	}
	c := VerifyCheck{Invariant: invSeqParIdentity, Name: "sequential/parallel bit-identity"}
	c.violate("boom %d", 1)
	r.Checks = append(r.Checks, c)
	if r.Ok() {
		t.Fatal("report with a violation must not be Ok")
	}
	if v := r.Violations(); len(v) != 1 || v[0].Invariant != invSeqParIdentity {
		t.Fatalf("want 1 flattened seq-par violation, got %+v", v)
	}
	var sb strings.Builder
	r.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"PASS", "SKIP", "FAIL", "boom 1", invEnergyDescent} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, out)
		}
	}
}

// descent runs monotoneDescent on one trace and returns what it recorded.
func descent(trace []float64, ripple float64) *VerifyCheck {
	c := &VerifyCheck{Invariant: invEnergyDescent}
	monotoneDescent(c, "probe 0", trace, ripple)
	return c
}

func TestMonotoneDescentCleanTrace(t *testing.T) {
	if c := descent([]float64{5, 4, 3.2, 2.9, 2.9, 2.85}, 0); len(c.Violations) != 0 {
		t.Fatalf("clean descent flagged: %v", c.Violations)
	}
}

func TestMonotoneDescentFlagsRise(t *testing.T) {
	v := descent([]float64{5, 4, 4.5, 3}, 0).Violations
	if len(v) != 1 {
		t.Fatalf("want 1 violation, got %d: %v", len(v), v)
	}
	if !strings.HasPrefix(v[0].Detail, "probe 0: ") || !strings.Contains(v[0].Detail, "trace point 2") {
		t.Fatalf("violation should name probe 0 and trace point 2: %s", v[0].Detail)
	}
}

func TestMonotoneDescentRippleTolerance(t *testing.T) {
	// 0.5 rise on a span of 4: within ripple 0.2 (allow 0.8), outside 0.1.
	trace := []float64{5, 4, 4.5, 1}
	if c := descent(trace, 0.2); len(c.Violations) != 0 {
		t.Fatalf("ripple within tolerance flagged: %v", c.Violations)
	}
	if c := descent(trace, 0.1); len(c.Violations) == 0 {
		t.Fatal("ripple beyond tolerance not flagged")
	}
}

func TestMonotoneDescentNetAscent(t *testing.T) {
	// Every step within ripple tolerance, but the trace ends above start.
	v := descent([]float64{1, 1.3, 1.6, 1.9}, 0.5).Violations
	if len(v) != 1 || !strings.Contains(v[0].Detail, "net energy ascent") {
		t.Fatalf("want one net-ascent violation, got %v", v)
	}
}

// TestMonotoneDescentCapsViolations: a sawtooth rises 32 times and ends
// above its start; the check lists 8 and counts the other 25.
func TestMonotoneDescentCapsViolations(t *testing.T) {
	trace := make([]float64, 64)
	for i := range trace {
		trace[i] = float64(i % 2)
	}
	c := descent(trace, 0)
	if len(c.Violations) != maxViolationsPerCheck || c.more != 25 {
		t.Fatalf("got %d listed and %d more, want %d and 25", len(c.Violations), c.more, maxViolationsPerCheck)
	}
}

// TestSameFloats: entries compare by value with NaN matching NaN; a row
// width names matrix entries by row and column.
func TestSameFloats(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{1, 2, 3 + 1e-15, 4}
	check := func(what string, a, b []float64, width int) []VerifyViolation {
		c := VerifyCheck{Invariant: invLosslessCompile}
		sameFloats(&c, what, a, b, width)
		return c.Violations
	}
	if v := check("J", a, a, 2); len(v) != 0 {
		t.Fatalf("identical matrices flagged: %v", v)
	}
	if v := check("J", a, b, 2); len(v) != 1 || !strings.HasPrefix(v[0].Detail, "J[1,0] diverges") {
		t.Fatalf("1-ulp divergence must be flagged once as J[1,0], got %v", v)
	}
	if v := check("H", a, b, 0); len(v) != 1 || !strings.HasPrefix(v[0].Detail, "H[2] diverges") {
		t.Fatalf("1-ulp divergence must be flagged once as H[2], got %v", v)
	}
	if v := check("J", a, a[:3], 2); len(v) != 1 || v[0].Detail != "J length diverges: 4 vs 3" {
		t.Fatalf("length divergence not flagged: %v", v)
	}
	nan := []float64{math.NaN(), math.Copysign(0, -1)}
	if v := check("J", nan, []float64{math.NaN(), 0}, 2); len(v) != 0 {
		t.Fatalf("NaN pair or -0/+0 pair flagged: %v", v)
	}
}

// TestSameResult: results compare bit for bit, so a voltage of -0 against
// +0 diverges, and every violation carries the pair's label.
func TestSameResult(t *testing.T) {
	result := func() *engine.Result {
		return &engine.Result{Voltage: []float64{1, 0}, LatencyNs: 10, AnnealNs: 9, Settled: true,
			Switches: 3, Energy: -1, Residual: math.NaN()}
	}
	check := func(a, b *engine.Result) []VerifyViolation {
		c := VerifyCheck{Invariant: invSeqParIdentity}
		sameResult(&c, "w0", a, b)
		return c.Violations
	}
	a, b := result(), result()
	if v := check(a, b); len(v) != 0 {
		t.Fatalf("identical results flagged: %v", v)
	}
	b.Voltage[1] = math.Copysign(0, -1)
	if v := check(a, b); len(v) != 1 || v[0].Detail != "w0: 1 voltages diverge (first at node 1: 0 vs -0)" {
		t.Fatalf("-0/+0 voltage not flagged: %v", v)
	}
	b.Settled = false
	v := check(a, b)
	if len(v) != 2 {
		t.Fatalf("want voltage + settled violations, got %v", v)
	}
	for _, one := range v {
		if !strings.HasPrefix(one.Detail, "w0: ") {
			t.Fatalf("violation missing label: %s", one.Detail)
		}
	}
}

// TestSettleResidualFlagsCorruptState: a model's settled probes hold the
// residual bound, and a settled claim on a state far from equilibrium is
// flagged.
func TestSettleResidualFlagsCorruptState(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := newProbes(model, VerifyOptions{Windows: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := VerifyCheck{Invariant: invSettleResidual}
	if err := model.checkSettleResidual(p, &c); err != nil {
		t.Fatal(err)
	}
	if !c.Passed() {
		t.Fatalf("settled anneals violate the residual bound: %+v", c)
	}
	bad := *p.seq[0]
	bad.Voltage = append([]float64(nil), bad.Voltage...)
	for i, obs := range model.observed {
		if !obs {
			bad.Voltage[i] = 0.9
		}
	}
	bad.Settled = true
	p.seq[0] = &bad
	c = VerifyCheck{Invariant: invSettleResidual}
	if err := model.checkSettleResidual(p, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Violations) != 1 || !strings.HasPrefix(c.Violations[0].Detail, "probe 0: Settled reported but equilibrium residual") {
		t.Fatalf("corrupted settled state not flagged: %+v", c.Violations)
	}
}

// TestWarmStartFixedPoint drives fixedPoint as the warm-start invariant 8
// uses it.
func TestWarmStartFixedPoint(t *testing.T) {
	check := func(ref, got *engine.Result) *VerifyCheck {
		c := &VerifyCheck{Invariant: invWarmStartFixedPoint}
		fixedPoint(c, "p", ref, got, 1e-4)
		return c
	}
	exact := &engine.Result{Settled: true, Voltage: []float64{0.5, -0.25, 0.75}}
	agree := &engine.Result{Settled: true, Voltage: []float64{0.5 + 5e-5, -0.25, 0.75 - 5e-5}}
	if v := check(exact, agree).Violations; len(v) != 0 {
		t.Fatalf("within-tol pair flagged: %v", v)
	}
	far := &engine.Result{Settled: true, Voltage: []float64{0.5, -0.25 + 1e-3, 0.75}}
	v := check(exact, far).Violations
	if len(v) != 1 || !strings.HasPrefix(v[0].Detail, "p: node 1") {
		t.Fatalf("out-of-tol node not flagged: %v", v)
	}
	if v[0].Invariant != invWarmStartFixedPoint {
		t.Fatalf("invariant id = %q", v[0].Invariant)
	}
	unsettled := &engine.Result{Settled: false, Voltage: exact.Voltage, Residual: 0.1, Switches: 3}
	if v := check(exact, unsettled).Violations; len(v) != 1 || !strings.Contains(v[0].Detail, "did not") {
		t.Fatalf("warm non-settle not flagged: %v", v)
	}
	// No claim when the cold reference itself did not settle.
	if v := check(unsettled, far).Violations; v != nil {
		t.Fatalf("vacuous case flagged: %v", v)
	}
	short := &engine.Result{Settled: true, Voltage: []float64{0.5}}
	if v := check(exact, short).Violations; len(v) != 1 {
		t.Fatalf("length mismatch not flagged: %v", v)
	}
	// Every node of a wide pair diverges: 8 listed, the rest counted.
	n := 2 * maxViolationsPerCheck
	wideA := &engine.Result{Settled: true, Voltage: make([]float64, n)}
	wideB := &engine.Result{Settled: true, Voltage: make([]float64, n)}
	for i := range wideB.Voltage {
		wideB.Voltage[i] = 1
	}
	if c := check(wideA, wideB); len(c.Violations) != maxViolationsPerCheck || c.more != n-maxViolationsPerCheck {
		t.Fatalf("got %d listed and %d more, want %d and %d", len(c.Violations), c.more, maxViolationsPerCheck, n-maxViolationsPerCheck)
	}
}
