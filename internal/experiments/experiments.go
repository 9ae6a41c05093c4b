// Package experiments contains one harness per table and figure of the
// paper's evaluation section (Sec. V). Every harness regenerates the
// corresponding artifact — the same rows or data series the paper reports —
// against the synthetic workloads of internal/datasets.
//
// The harnesses are sized so the full suite runs on a laptop: graphs use
// N = 32 nodes (window systems of a few hundred dynamical-system nodes) and
// evaluation samples a fixed number of test windows. Sizes are adjustable
// through Config.
package experiments

import (
	"fmt"
	"io"

	"dsgl"
	"dsgl/internal/datasets"
	"dsgl/internal/gnn"
	"dsgl/internal/pool"
)

// Config sizes the experiment suite.
type Config struct {
	// N is the graph-node count per dataset (default 32).
	N int
	// T is the series length (default 0 = generator default).
	T int
	// EvalWindows caps the test windows evaluated per cell (default 30).
	EvalWindows int
	// GNNEpochs trains the baselines (default 12).
	GNNEpochs int
	// Datasets restricts which single-feature workloads the dataset-sweep
	// harnesses cover (default: all seven).
	Datasets []string
	// Seed drives the whole suite.
	Seed uint64
	// Workers bounds the worker pool the sweep harnesses (Fig. 10-13) fan
	// their grid cells across, and sets dsgl.Options.Workers — the
	// per-model pool used by EvaluateParallel and lambda selection — for
	// the models the harnesses train (0 = runtime.GOMAXPROCS(0)). Cells
	// are seeded per configuration, so results are identical for any
	// worker count.
	Workers int
}

func (c *Config) fillDefaults() {
	if c.N == 0 {
		c.N = 32
	}
	if c.EvalWindows == 0 {
		c.EvalWindows = 30
	}
	if c.GNNEpochs == 0 {
		c.GNNEpochs = 12
	}
}

// dataset builds the named workload at the configured size.
func (c Config) dataset(name string) *datasets.Dataset {
	return datasets.Generate(name, datasets.Config{N: c.N, T: c.T, Seed: c.Seed})
}

// datasetNames returns the configured workload list (default: all seven).
func (c Config) datasetNames() []string {
	if len(c.Datasets) > 0 {
		return c.Datasets
	}
	return datasets.Names()
}

// intersectNames filters want to the configured list, preserving order.
func (c Config) intersectNames(want []string) []string {
	if len(c.Datasets) == 0 {
		return want
	}
	allowed := make(map[string]bool, len(c.Datasets))
	for _, n := range c.Datasets {
		allowed[n] = true
	}
	var out []string
	for _, n := range want {
		if allowed[n] {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return c.Datasets
	}
	return out
}

// testWindows returns up to EvalWindows windows from the test split.
func (c Config) testWindows(ds *datasets.Dataset) []datasets.Window {
	_, test := ds.Split()
	if len(test) > c.EvalWindows {
		test = test[:c.EvalWindows]
	}
	return test
}

// evaluate trains one model per cell on ds, with the suite's seed and
// worker count where a cell leaves them zero, and evaluates each on test.
// The cells fan across the worker pool; models and reports come back in
// cell order. Every cell is seeded by its own options, so the output is the
// same for any worker count.
func (c Config) evaluate(ds *datasets.Dataset, test []datasets.Window, cells []dsgl.Options) ([]*dsgl.Model, []*dsgl.Report, error) {
	models := make([]*dsgl.Model, len(cells))
	reps := make([]*dsgl.Report, len(cells))
	err := pool.RunErr(c.Workers, len(cells), func(i int) error {
		opts := cells[i]
		if opts.Seed == 0 {
			opts.Seed = c.Seed + 11
		}
		if opts.Workers == 0 {
			opts.Workers = c.Workers
		}
		m, err := dsgl.Train(ds, opts)
		if err != nil {
			return err
		}
		models[i] = m
		reps[i], err = m.Evaluate(test)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return models, reps, nil
}

// gnnBaselines trains the GNN baselines, in gnn.BaselineNames order, on
// ds's training split and returns them with their test RMSEs.
func (c Config) gnnBaselines(ds *datasets.Dataset, test []datasets.Window) ([]gnn.Model, []float64, error) {
	trainW, _ := ds.Split()
	names := gnn.BaselineNames()
	models := make([]gnn.Model, len(names))
	rmse := make([]float64, len(names))
	for i, bn := range names {
		m, err := gnn.NewBaseline(bn, ds, c.Seed+2)
		if err != nil {
			return nil, nil, err
		}
		if _, err := gnn.Train(m, ds, trainW, gnn.TrainConfig{Epochs: c.GNNEpochs, Seed: c.Seed + 3}); err != nil {
			return nil, nil, err
		}
		models[i], rmse[i] = m, gnn.Evaluate(m, ds, test)
	}
	return models, rmse, nil
}

// Runner dispatches an experiment by its paper identifier.
type Runner func(cfg Config, w io.Writer) error

// harnesses lists every harness under its paper identifier, in paper order
// (the hetero comparison extends Table IV, so it follows it).
var harnesses = []struct {
	id  string
	run Runner
}{
	{"fig4", Fig4},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"fig12", Fig12},
	{"fig13", Fig13},
	{"table1", Table1},
	{"table2", Table2},
	{"table3", Table3},
	{"table4", Table4},
	{"hetero", Hetero},
}

// Registry maps experiment ids ("fig4", "table2", ...) to their harnesses.
func Registry() map[string]Runner {
	reg := make(map[string]Runner, len(harnesses))
	for _, e := range harnesses {
		reg[e.id] = e.run
	}
	return reg
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string {
	ids := make([]string, len(harnesses))
	for i, e := range harnesses {
		ids[i] = e.id
	}
	return ids
}

// header prints a section banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
