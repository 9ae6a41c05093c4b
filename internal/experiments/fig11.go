package experiments

import (
	"fmt"
	"io"

	"dsgl"
)

// Fig11 reproduces the accuracy-vs-latency study: the best RMSE obtainable
// within a given inference-latency budget, per dataset. Short budgets force
// the DS-GL-Spatial regime (or truncated annealing); longer budgets allow
// Temporal & Spatial co-annealing at higher coupling density to finish,
// improving accuracy until the curve flattens past its knee.
func Fig11(cfg Config, w io.Writer) error {
	cfg.fillDefaults()
	header(w, "Fig. 11 — best RMSE vs inference latency budget")

	budgets := []float64{200, 500, 1000, 2000, 5000, 15000} // ns
	// Candidate operating points: the spatial variant (fast, lossy) and
	// temporal variants at rising density (slower, more accurate).
	type point struct {
		name             string
		density          float64
		temporalDisabled bool
		lanes            int
	}
	points := []point{
		{"spatial d=0.05", 0.05, true, 8},
		{"temporal d=0.05", 0.05, false, 8},
		{"temporal d=0.10", 0.10, false, 8},
		{"temporal d=0.15", 0.15, false, 8},
	}

	for _, name := range cfg.datasetNames() {
		ds := cfg.dataset(name)
		test := cfg.testWindows(ds)
		dense, err := dsgl.TrainDense(ds, dsgl.Options{Seed: cfg.Seed + 11})
		if err != nil {
			return err
		}

		// Evaluate every operating point per budget; report the best RMSE
		// achieved within each latency budget. Cell pi*len(budgets)+bi is
		// point pi truncated at budget bi.
		var cells []dsgl.Options
		for _, p := range points {
			for _, budget := range budgets {
				cells = append(cells, dsgl.Options{
					Pattern:          dsgl.DMesh,
					Density:          p.density,
					Lanes:            p.lanes,
					TemporalDisabled: p.temporalDisabled,
					MaxInferNs:       budget,
					DenseInit:        dense,
				})
			}
		}
		_, reps, err := cfg.evaluate(ds, test, cells)
		if err != nil {
			return err
		}

		fmt.Fprintf(w, "\n%s:\n%12s %12s\n", name, "latency(us)", "best RMSE")
		for bi, budget := range budgets {
			best := 0.0
			for pi := range points {
				r := reps[pi*len(budgets)+bi]
				if r.MeanLatencyUs*1000 <= budget+1 && (best == 0 || r.RMSE < best) {
					best = r.RMSE
				}
			}
			if best == 0 {
				fmt.Fprintf(w, "%12.2f %12s\n", budget/1000, "-")
				continue
			}
			fmt.Fprintf(w, "%12.2f %12.4g\n", budget/1000, best)
		}
	}
	return nil
}
