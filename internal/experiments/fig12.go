package experiments

import (
	"fmt"
	"io"

	"dsgl"
)

// Fig12 reproduces the synchronization study: RMSE as a function of the
// inter-mapping synchronization interval (1 ns to 5 µs) on the Stock, NO2,
// and Traffic datasets with the DMesh pattern. The expected shape: accuracy
// is essentially flat up to ~500 ns (the paper deploys 200 ns) and degrades
// beyond it as held coupling contributions go stale.
func Fig12(cfg Config, w io.Writer) error {
	cfg.fillDefaults()
	header(w, "Fig. 12 — RMSE vs synchronization interval (DMesh)")

	intervals := []float64{1, 50, 200, 500, 1000, 2000, 5000} // ns
	for _, name := range cfg.intersectNames([]string{"stock", "no2", "traffic"}) {
		ds := cfg.dataset(name)
		test := cfg.testWindows(ds)
		dense, err := dsgl.TrainDense(ds, dsgl.Options{Seed: cfg.Seed + 11})
		if err != nil {
			return err
		}
		// Few lanes force temporal+spatial mode so held slices exist and
		// synchronization matters.
		cells := make([]dsgl.Options, len(intervals))
		for i, sync := range intervals {
			cells[i] = dsgl.Options{
				Pattern:        dsgl.DMesh,
				Density:        0.10,
				Lanes:          6,
				SyncIntervalNs: sync,
				MaxInferNs:     5000,
				DenseInit:      dense,
			}
		}
		_, reps, err := cfg.evaluate(ds, test, cells)
		if err != nil {
			return err
		}

		fmt.Fprintf(w, "\n%s:\n%14s %10s %12s\n", name, "sync(ns)", "RMSE", "latency(us)")
		for i, sync := range intervals {
			fmt.Fprintf(w, "%14.0f %10.4g %12.3g\n", sync, reps[i].RMSE, reps[i].MeanLatencyUs)
		}
	}
	return nil
}
