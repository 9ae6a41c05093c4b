package experiments

import (
	"fmt"
	"io"

	"dsgl"
	"dsgl/internal/gnn"
	"dsgl/internal/pool"
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
		trainW, _ := ds.Split()

		// Best-GNN reference line.
		bestGNN := 0.0
		for _, bn := range gnn.BaselineNames() {
			m, err := gnn.NewBaseline(bn, ds, cfg.Seed+2)
			if err != nil {
				return err
			}
			if _, err := gnn.Train(m, ds, trainW, gnn.TrainConfig{Epochs: cfg.GNNEpochs, Seed: cfg.Seed + 3}); err != nil {
				return err
			}
			rmse := gnn.Evaluate(m, ds, test)
			if bestGNN == 0 || rmse < bestGNN {
				bestGNN = rmse
			}
		}

		// The dense phase is density/pattern independent — train it once
		// and sweep the decomposition.
		dense, err := dsgl.TrainDense(ds, dsgl.Options{Seed: cfg.Seed + 11})
		if err != nil {
			return err
		}

		// The density x pattern grid is embarrassingly parallel: every
		// cell trains an independent decomposition from the shared dense
		// model. Fan the cells across the worker pool, then print in
		// grid order.
		rmse := make([]float64, len(densities)*len(patterns))
		err = pool.RunErr(cfg.Workers, len(rmse), func(cell int) error {
			di, pi := cell/len(patterns), cell%len(patterns)
			model, err := cfg.dsglModel(ds, dsgl.Options{
				Pattern:   patterns[pi].kind,
				Density:   densities[di],
				DenseInit: dense,
			})
			if err != nil {
				return err
			}
			rep, err := model.Evaluate(test)
			if err != nil {
				return err
			}
			rmse[cell] = rep.RMSE
			return nil
		})
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
				fmt.Fprintf(w, "%10.4g", rmse[di*len(patterns)+pi])
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
