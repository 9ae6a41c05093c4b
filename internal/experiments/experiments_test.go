package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"dsgl/internal/gnn"
)

// tinyConfig keeps experiment smoke tests fast: minimal graphs, short
// series, few windows, few GNN epochs.
func tinyConfig() Config {
	return Config{N: 12, T: 300, EvalWindows: 4, GNNEpochs: 2, Seed: 3}
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
	want := strings.Split(string(committed[:end]), "\n")
	got := strings.Split(buf.String(), "\n")
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			t.Fatalf("line %d: got %q, committed %q", i+1, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d lines, committed %d", len(got), len(want))
	}
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
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := tinyConfig()
	cfg.Datasets = []string{"no2"}
	var buf bytes.Buffer
	if err := Fig12(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"no2", "sync(ns)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig12 output missing %q", want)
		}
	}
}

func TestFig13RunsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := tinyConfig()
	cfg.Datasets = []string{"no2"}
	var buf bytes.Buffer
	if err := Fig13(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"n=0%", "n=15%", "density"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig13 output missing %q", want)
		}
	}
}

func TestTable4RunsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	if err := Table4(tinyConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"housing", "climate", "DS-GL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table4 output missing %q", want)
		}
	}
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
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := tinyConfig()
	cfg.Datasets = []string{"no2"}
	var buf bytes.Buffer
	if err := Fig10(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"no2", "best GNN RMSE", "Chain", "Mesh", "DMesh", "density"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig10 output missing %q", want)
		}
	}
}

func TestFig11SingleDatasetTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := tinyConfig()
	cfg.Datasets = []string{"stock"}
	var buf bytes.Buffer
	if err := Fig11(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"stock", "latency(us)", "best RMSE"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig11 output missing %q", want)
		}
	}
}

func TestTable2SingleDatasetTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := tinyConfig()
	cfg.Datasets = []string{"o3"}
	var buf bytes.Buffer
	if err := Table2(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"GWN", "MTGNN", "DDGCRN", "DS-GL-Spatial", "DS-GL-DMesh", "o3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table2 output missing %q", want)
		}
	}
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
