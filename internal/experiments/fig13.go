package experiments

import (
	"fmt"
	"io"

	"dsgl"
)

// Fig13 reproduces the robustness study: RMSE versus coupling-matrix
// density under dynamic Gaussian noise injected at both nodes and coupling
// units, with standard deviations n ∈ {0%, 5%, 10%, 15%}, on three
// representative datasets with the DMesh pattern. The paper's observation —
// physical dynamical systems tolerate analog noise gracefully — shows as
// curves that shift only slightly as n grows.
func Fig13(cfg Config, w io.Writer) error {
	cfg.fillDefaults()
	header(w, "Fig. 13 — RMSE vs density under node/coupler noise (DMesh)")

	densities := []float64{0.05, 0.10, 0.15, 0.20}
	noises := []float64{0, 0.05, 0.10, 0.15}
	for _, name := range cfg.intersectNames([]string{"stock", "no2", "traffic"}) {
		ds := cfg.dataset(name)
		test := cfg.testWindows(ds)
		dense, err := dsgl.TrainDense(ds, dsgl.Options{Seed: cfg.Seed + 11})
		if err != nil {
			return err
		}
		var cells []dsgl.Options
		for _, d := range densities {
			for _, n := range noises {
				cells = append(cells, dsgl.Options{
					Pattern:      dsgl.DMesh,
					Density:      d,
					NodeNoise:    n,
					CouplerNoise: n,
					MaxInferNs:   8000,
					DenseInit:    dense,
				})
			}
		}
		_, reps, err := cfg.evaluate(ds, test, cells)
		if err != nil {
			return err
		}

		fmt.Fprintf(w, "\n%s:\n%9s", name, "density")
		for _, n := range noises {
			fmt.Fprintf(w, "%10s", fmt.Sprintf("n=%.0f%%", n*100))
		}
		fmt.Fprintln(w)
		for di, d := range densities {
			fmt.Fprintf(w, "%9.2f", d)
			for ni := range noises {
				fmt.Fprintf(w, "%10.4g", reps[di*len(noises)+ni].RMSE)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
