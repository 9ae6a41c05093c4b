package experiments

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsgl/internal/gnn"
)

// The tiny-config runs of the training harnesses are pinned byte for byte
// against testdata/<name>.txt. Regenerate only when an output change is
// intended:
//
//	go test -run 'Tiny$' -update-golden ./internal/experiments
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.txt from the current code")

// tinyConfig keeps experiment smoke tests fast: minimal graphs, short
// series, few windows, few GNN epochs.
func tinyConfig() Config {
	return Config{N: 12, T: 300, EvalWindows: 4, GNNEpochs: 2, Seed: 3}
}

// checkTiny runs one harness on tinyConfig restricted to datasets (nil
// keeps the harness's own list) and compares its output with
// testdata/<golden>.txt, or rewrites the file under -update-golden.
func checkTiny(t *testing.T, golden string, run func(Config, io.Writer) error, datasets ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := tinyConfig()
	cfg.Datasets = datasets
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", golden+".txt")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden output (regenerate with -update-golden): %v", err)
	}
	sameLines(t, path, buf.String(), string(want))
}

// sameLines fails at the first line where got differs from want, the
// output pinned in file.
func sameLines(t *testing.T, file, got, want string) {
	t.Helper()
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < min(len(g), len(w)); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s line %d: got %q, pinned %q", file, i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Fatalf("%s: got %d lines, pinned %d", file, len(g), len(w))
	}
}

func TestRegistryCoversAllIDs(t *testing.T) {
	reg := Registry()
	for _, id := range IDs() {
		if _, ok := reg[id]; !ok {
			t.Fatalf("experiment %q missing from registry", id)
		}
	}
	if len(reg) != len(IDs()) {
		t.Fatalf("registry has %d entries, IDs lists %d", len(reg), len(IDs()))
	}
}

func TestFig4Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig4(tinyConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"DSPU", "BRIM", "settled strictly inside the rails: 3/3", "polarized to ±1:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig4 output missing %q:\n%s", want, out)
		}
	}
}

// TestFig4MatchesCommittedOutput pins Fig. 4 byte for byte: run with the
// CLI's default seed (7), Fig4 must print exactly the Fig. 4 section of the
// committed experiments_output.txt, every line before "[fig4 completed".
func TestFig4MatchesCommittedOutput(t *testing.T) {
	committed, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	end := bytes.Index(committed, []byte("\n[fig4 completed"))
	if end < 0 {
		t.Fatal("experiments_output.txt has no Fig. 4 section")
	}
	var buf bytes.Buffer
	if err := Fig4(Config{Seed: 7}, &buf); err != nil {
		t.Fatal(err)
	}
	sameLines(t, "experiments_output.txt", buf.String(), string(committed[:end]))
}

func TestTable1Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(tinyConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"BRIM", "DSPU-2000", "DS-GL", "Real-Value", "Binary"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q", want)
		}
	}
}

func TestTable3Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3(tinyConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Stratix 10 SX", "NVIDIA A100", "GWN", "speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table3 output missing %q", want)
		}
	}
}

func TestFig12RunsTiny(t *testing.T) {
	checkTiny(t, "fig12", Fig12, "no2")
}

func TestFig13RunsTiny(t *testing.T) {
	checkTiny(t, "fig13", Fig13, "no2")
}

func TestTable4RunsTiny(t *testing.T) {
	checkTiny(t, "table4", Table4)
}

func TestHeteroRunsTiny(t *testing.T) {
	checkTiny(t, "hetero", Hetero)
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fillDefaults()
	if c.N == 0 || c.EvalWindows == 0 || c.GNNEpochs == 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
}

func TestPaperScaleFLOPModels(t *testing.T) {
	small := gnnFLOPsGWN(gnnGeom(100), 32, 8)
	big := gnnFLOPsGWN(gnnGeom(1000), 32, 8)
	if big <= small {
		t.Fatal("FLOPs must grow with graph size")
	}
	if gnnFLOPsMTGNN(gnnGeom(1000), 32, 2, 3) <= 0 || gnnFLOPsDDGCRN(gnnGeom(1000), 64) <= 0 {
		t.Fatal("FLOP models must be positive")
	}
}

// gnnGeom builds a paper-scale geometry for FLOP-model tests.
func gnnGeom(n int) gnn.Geometry {
	return gnn.Geometry{N: n, F: 1, P: 12, Q: 12, U: 1}
}

func TestFig10SingleDatasetTiny(t *testing.T) {
	checkTiny(t, "fig10", Fig10, "no2")
}

func TestFig11SingleDatasetTiny(t *testing.T) {
	checkTiny(t, "fig11", Fig11, "stock")
}

func TestTable2SingleDatasetTiny(t *testing.T) {
	checkTiny(t, "table2", Table2, "o3")
}

func TestIntersectNames(t *testing.T) {
	c := Config{Datasets: []string{"no2", "stock"}}
	got := c.intersectNames([]string{"stock", "traffic"})
	if len(got) != 1 || got[0] != "stock" {
		t.Fatalf("intersect = %v", got)
	}
	// Disjoint lists fall back to the configured set.
	got = c.intersectNames([]string{"traffic"})
	if len(got) != 2 {
		t.Fatalf("fallback = %v", got)
	}
	var def Config
	got = def.intersectNames([]string{"traffic"})
	if len(got) != 1 || got[0] != "traffic" {
		t.Fatalf("default = %v", got)
	}
}

func TestDatasetNamesDefault(t *testing.T) {
	var c Config
	if len(c.datasetNames()) != 7 {
		t.Fatalf("default dataset list: %v", c.datasetNames())
	}
}
