package experiments

import (
	"fmt"
	"io"

	"dsgl"
)

// Fig10 reproduces the accuracy-vs-density study: DS-GL RMSE as a function
// of the post-decomposition coupling-matrix density (proportion of
// non-zeros) for the Chain, Mesh, and DMesh communication patterns (each
// with Wormhole enabled), across the seven single-feature datasets, with
// the best GNN result as the reference line.
//
// Expected shape (paper): RMSE falls as density rises; richer patterns
// (DMesh < Mesh < Chain in RMSE) dominate; DS-GL crosses below the best
// GNN line.
func Fig10(cfg Config, w io.Writer) error {
	cfg.fillDefaults()
	header(w, "Fig. 10 — RMSE vs coupling-matrix density, per pattern, 7 datasets")

	densities := []float64{0.02, 0.05, 0.10, 0.15, 0.20}
	patterns := []struct {
		name string
		kind dsgl.Pattern
	}{
		{"Chain", dsgl.Chain},
		{"Mesh", dsgl.Mesh},
		{"DMesh", dsgl.DMesh},
	}

	for _, name := range cfg.datasetNames() {
		ds := cfg.dataset(name)
		test := cfg.testWindows(ds)

		// Best-GNN reference line: the loop's first strict minimum skips a
		// NaN RMSE after the first baseline, where slices.Min returns it.
		_, gnnRMSE, err := cfg.gnnBaselines(ds, test)
		if err != nil {
			return err
		}
		bestGNN := 0.0
		for _, rmse := range gnnRMSE {
			if bestGNN == 0 || rmse < bestGNN {
				bestGNN = rmse
			}
		}

		// The dense phase is density/pattern independent — train it once
		// and sweep the decomposition over the density x pattern grid.
		dense, err := dsgl.TrainDense(ds, dsgl.Options{Seed: cfg.Seed + 11})
		if err != nil {
			return err
		}
		var cells []dsgl.Options
		for _, d := range densities {
			for _, p := range patterns {
				cells = append(cells, dsgl.Options{Pattern: p.kind, Density: d, DenseInit: dense})
			}
		}
		_, reps, err := cfg.evaluate(ds, test, cells)
		if err != nil {
			return err
		}

		fmt.Fprintf(w, "\n%s (best GNN RMSE %.4g):\n", name, bestGNN)
		fmt.Fprintf(w, "%9s", "density")
		for _, p := range patterns {
			fmt.Fprintf(w, "%10s", p.name)
		}
		fmt.Fprintln(w)
		for di, d := range densities {
			fmt.Fprintf(w, "%9.2f", d)
			for pi := range patterns {
				fmt.Fprintf(w, "%10.4g", reps[di*len(patterns)+pi].RMSE)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
