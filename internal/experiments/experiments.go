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

// dsglModel trains the full pipeline with suite-standard options.
func (c Config) dsglModel(ds *datasets.Dataset, opts dsgl.Options) (*dsgl.Model, error) {
	if opts.Seed == 0 {
		opts.Seed = c.Seed + 11
	}
	if opts.Workers == 0 {
		opts.Workers = c.Workers
	}
	return dsgl.Train(ds, opts)
}

// Runner dispatches an experiment by its paper identifier.
type Runner func(cfg Config, w io.Writer) error

// Registry maps experiment ids ("fig4", "table2", ...) to their harnesses.
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig4":   func(c Config, w io.Writer) error { return Fig4(c, w) },
		"fig10":  func(c Config, w io.Writer) error { return Fig10(c, w) },
		"fig11":  func(c Config, w io.Writer) error { return Fig11(c, w) },
		"fig12":  func(c Config, w io.Writer) error { return Fig12(c, w) },
		"fig13":  func(c Config, w io.Writer) error { return Fig13(c, w) },
		"table1": func(c Config, w io.Writer) error { return Table1(c, w) },
		"table2": func(c Config, w io.Writer) error { return Table2(c, w) },
		"table3": func(c Config, w io.Writer) error { return Table3(c, w) },
		"table4": func(c Config, w io.Writer) error { return Table4(c, w) },
		"hetero": func(c Config, w io.Writer) error { return Hetero(c, w) },
	}
}

// IDs lists the experiment identifiers in paper order (the hetero
// comparison extends Table IV, so it follows it).
func IDs() []string {
	return []string{"fig4", "fig10", "fig11", "fig12", "fig13", "table1", "table2", "table3", "table4", "hetero"}
}

// header prints a section banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
