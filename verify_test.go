package dsgl

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"dsgl/internal/verify"
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
			[]string{verify.InvLosslessCompile}},
		{"noise",
			func() Options { o := tinyOptions(); o.NodeNoise = 0.05; return o }(),
			[]string{verify.InvEnergyDescent, verify.InvWarmStartFixedPoint}},
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
			if c := findCheck(t, rep, verify.InvOptBestEnergyMonotone); c.Skipped || !c.Passed() {
				t.Fatalf("opt-best-energy-monotone not green: %+v", c)
			}
			// The K=1 decomposition identity is a bit-identity claim that
			// holds in every regime (the twin shares the noise options), so
			// it must actively compare and come back clean.
			if c := findCheck(t, rep, verify.InvDecomposedK1Identity); c.Skipped || !c.Passed() {
				t.Fatalf("decomposed-k1-identity not green: %+v", c)
			}
			// The plan/naive identity must hold in every regime, noise
			// included (the plan path replicates the noise stream).
			if c := findCheck(t, rep, verify.InvPlanNaiveIdentity); c.Skipped || !c.Passed() {
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
				if c.Invariant == verify.InvLosslessCompile && !mustSkip[c.Invariant] && c.Skipped {
					t.Errorf("%s unexpectedly skipped: %s", c.Invariant, c.Detail)
				}
				// The warm-start check must actively compare whenever noise
				// does not void it.
				if c.Invariant == verify.InvWarmStartFixedPoint && !mustSkip[c.Invariant] && c.Skipped {
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
	if c := findCheck(t, rep, verify.InvLosslessCompile); c.Passed() || c.Skipped {
		t.Fatalf("lossless-compile check did not flag the tampered coupling: %+v", c)
	}
	if c := findCheck(t, rep, verify.InvSnapshotRoundTrip); len(c.Violations) == 0 {
		t.Fatal("round-trip check did not flag the snapshot/in-memory divergence")
	}
	// The untampered invariants still hold: the running machine is
	// internally consistent even though it no longer matches Tuned.J.
	if c := findCheck(t, rep, verify.InvSeqParIdentity); !c.Passed() {
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
	c := findCheck(t, rep, verify.InvSnapshotRoundTrip)
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
	rep, err := Verify(model, VerifyOptions{Windows: 3, EnergyProbes: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatal("verification failed on a healthy model")
	}
	c := findCheck(t, rep, verify.InvSeqParIdentity)
	if !strings.Contains(c.Detail, "3 windows") {
		t.Fatalf("seq/par check detail %q, want a 3-window probe set", c.Detail)
	}
	// EnergyProbes asked for more traces than windows; it must be capped.
	e := findCheck(t, rep, verify.InvEnergyDescent)
	if !strings.Contains(e.Detail, "3 probe anneals") {
		t.Fatalf("energy check detail %q, want 3 capped probe anneals", e.Detail)
	}
}
