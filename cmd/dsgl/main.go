// Command dsgl regenerates the tables and figures of the DS-GL paper
// (ISCA 2024) against the synthetic workloads of this reproduction.
//
// Usage:
//
//	dsgl list                 # show available experiments
//	dsgl fig4                 # circuit-level validation (Fig. 4)
//	dsgl fig10 -n 32 -eval 30 # accuracy vs density (Fig. 10)
//	dsgl table2               # RMSE vs SOTA GNNs (Table II)
//	dsgl eval -backend dense  # train + evaluate one dataset end to end
//	dsgl verify               # check the ten runtime invariants
//	dsgl opt -nodes 800       # solve a Gset-style MaxCut instance
//	dsgl all                  # run the full suite in paper order
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"dsgl"
	"dsgl/internal/experiments"
	"dsgl/internal/obs"
	"dsgl/internal/obs/obshttp"
)

// main is a thin shell around realMain: os.Exit skips deferred functions,
// so every error path returns an exit code instead of exiting directly —
// otherwise an error during a run with -obs-addr would kill the process
// without the deferred observability shutdown (and its -obs-linger window)
// ever running.
func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	cmd := args[0]
	rest := args[1:]
	// "opt" has a disjoint flag surface (instance generators and annealing
	// controls rather than dataset/training knobs), so it dispatches before
	// the shared experiment FlagSet.
	if cmd == "opt" {
		return optCmd(rest, os.Stdout)
	}
	// "inspect" and "eval" take an optional dataset name before the flags.
	inspectName := "traffic"
	if (cmd == "inspect" || cmd == "eval") && len(rest) > 0 && len(rest[0]) > 0 && rest[0][0] != '-' {
		inspectName = rest[0]
		rest = rest[1:]
	}
	// "verify" takes any number of dataset names before the flags
	// (default: every built-in workload).
	var verifyNames []string
	if cmd == "verify" {
		for len(rest) > 0 && len(rest[0]) > 0 && rest[0][0] != '-' {
			verifyNames = append(verifyNames, rest[0])
			rest = rest[1:]
		}
	}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	n := fs.Int("n", 32, "graph nodes per dataset")
	t := fs.Int("t", 0, "series length (0 = dataset default)")
	evalWindows := fs.Int("eval", 30, "test windows evaluated per configuration")
	gnnEpochs := fs.Int("gnn-epochs", 12, "training epochs for the GNN baselines")
	seed := fs.Uint64("seed", 7, "suite seed")
	workers := fs.Int("workers", 0, "worker-pool size for batch inference and parameter sweeps (0 = GOMAXPROCS)")
	backend := fs.String("backend", dsgl.BackendScalable,
		fmt.Sprintf("inference backend for eval/verify/inspect: %q (full pipeline) or %q (single-PE phase-1 model)",
			dsgl.BackendScalable, dsgl.BackendDense))
	decompose := fs.Bool("decompose", false,
		"train eval/verify/inspect models with heterogeneous decomposition (per-class interaction blocks)")
	classes := fs.Int("classes", 0,
		"interaction classes K for -decompose (0 = default 3; K=1 reproduces the monolithic fit bit-for-bit)")
	classMode := fs.String("class-mode", "",
		`class-assignment profile for -decompose: "stats" (default) or "embed"`)
	obsAddr := fs.String("obs-addr", "",
		"serve observability endpoints on this address during the run: Prometheus text on /metrics, JSON on /metricsz, pprof under /debug/pprof/ (e.g. :9137; empty = disabled)")
	obsLinger := fs.Duration("obs-linger", 0,
		"keep the -obs-addr server alive this long after the run completes, so scrapers can read the final state")
	if err := fs.Parse(rest); err != nil {
		return 2
	}
	if !validBackend(*backend) {
		fmt.Fprintf(os.Stderr, "dsgl: unknown backend %q (valid: %s)\n", *backend, strings.Join(dsgl.Backends(), ", "))
		return 2
	}
	if *obsAddr != "" {
		dsgl.EnableMetrics()
		bound, shutdown, err := obshttp.Serve(*obsAddr, obs.Default())
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsgl: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "observability: http://%s (/metrics, /metricsz, /debug/pprof/)\n", bound)
		defer func() {
			if *obsLinger > 0 {
				fmt.Fprintf(os.Stderr, "observability: lingering %v before shutdown\n", *obsLinger)
				time.Sleep(*obsLinger)
			}
			shutdown()
		}()
	}
	cfg := experiments.Config{
		N:           *n,
		T:           *t,
		EvalWindows: *evalWindows,
		GNNEpochs:   *gnnEpochs,
		Seed:        *seed,
		Parallelism: *workers,
		Workers:     *workers,
	}
	trainOpts := dsgl.Options{
		Backend:   *backend,
		Seed:      *seed,
		Workers:   *workers,
		Decompose: *decompose,
		Classes:   *classes,
		ClassMode: *classMode,
	}

	registry := experiments.Registry()
	switch cmd {
	case "inspect":
		if err := inspect(inspectName, cfg, trainOpts); err != nil {
			fmt.Fprintf(os.Stderr, "dsgl inspect: %v\n", err)
			return 1
		}
	case "eval":
		if err := eval(inspectName, cfg, trainOpts); err != nil {
			fmt.Fprintf(os.Stderr, "dsgl eval: %v\n", err)
			return 1
		}
	case "verify":
		if err := verify(verifyNames, cfg, trainOpts); err != nil {
			fmt.Fprintf(os.Stderr, "dsgl verify: %v\n", err)
			return 1
		}
	case "list":
		ids := experiments.IDs()
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Println(id)
		}
	case "all":
		for _, id := range experiments.IDs() {
			if err := runExperiment(registry, id, cfg); err != nil {
				fmt.Fprintf(os.Stderr, "dsgl %s: %v\n", id, err)
				return 1
			}
		}
	default:
		if _, ok := registry[cmd]; !ok {
			fmt.Fprintf(os.Stderr, "dsgl: unknown experiment %q\n\n", cmd)
			usage()
			return 2
		}
		if err := runExperiment(registry, cmd, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "dsgl %s: %v\n", cmd, err)
			return 1
		}
	}
	return 0
}

func runExperiment(registry map[string]experiments.Runner, id string, cfg experiments.Config) error {
	start := time.Now()
	if err := registry[id](cfg, os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\n[%s completed in %v]\n", id, time.Since(start).Round(time.Millisecond))
	return nil
}

// validBackend reports whether name is a recognized Options.Backend value.
func validBackend(name string) bool {
	for _, b := range dsgl.Backends() {
		if name == b {
			return true
		}
	}
	return false
}

// inspect trains the standard pipeline on one dataset and dumps the
// compiled hardware mapping (PE occupancy, slices, inter-PE traffic).
func inspect(name string, cfg experiments.Config, opts dsgl.Options) error {
	if opts.Backend == dsgl.BackendDense {
		return fmt.Errorf("the %q backend has no compiled PE mapping to inspect; use -backend %s",
			dsgl.BackendDense, dsgl.BackendScalable)
	}
	ds, err := dsgl.NewDataset(name, dsgl.DatasetConfig{N: cfg.N, T: cfg.T, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	model, err := dsgl.Train(ds, opts)
	if err != nil {
		return err
	}
	model.Machine.Describe(os.Stdout)
	return nil
}

// eval trains one dataset end to end on the selected backend and reports
// aggregate accuracy and latency over the test split — the quickest way to
// compare the dense Sec. III model against the full scalable pipeline.
func eval(name string, cfg experiments.Config, opts dsgl.Options) error {
	ds, err := dsgl.NewDataset(name, dsgl.DatasetConfig{N: cfg.N, T: cfg.T, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	model, err := dsgl.Train(ds, opts)
	if err != nil {
		return err
	}
	_, test := ds.Split()
	if cfg.EvalWindows > 0 && len(test) > cfg.EvalWindows {
		test = test[:cfg.EvalWindows]
	}
	rep, err := model.EvaluateParallel(test, cfg.Workers)
	if err != nil {
		return err
	}
	fmt.Printf("%s (%s backend): RMSE %.4g  MAE %.4g  MAPE %s  %.3g µs/inference  (%d windows, mode %s)\n",
		name, opts.Backend, rep.RMSE, rep.MAE, formatMAPE(rep), rep.MeanLatencyUs, rep.Windows, rep.Mode)
	return nil
}

// formatMAPE renders a report's MAPE: "n/a" when every pair was skipped
// (MAPE is NaN — there is no measurement, and printing 0.00% would claim
// a perfect score), with the skipped-pair coverage noted when partial.
func formatMAPE(rep *dsgl.Report) string {
	if math.IsNaN(rep.MAPE) {
		return fmt.Sprintf("n/a (%d pairs below eps)", rep.MAPESkipped)
	}
	if rep.MAPESkipped > 0 {
		return fmt.Sprintf("%.2f%% (%d pairs skipped)", 100*rep.MAPE, rep.MAPESkipped)
	}
	return fmt.Sprintf("%.2f%%", 100*rep.MAPE)
}

// verify trains the standard pipeline on each named workload (default:
// every built-in dataset) and runs the invariant-verification harness
// (dsgl.Verify) against the trained model: the ten invariants listed in
// the internal/verify package doc. Any violation makes the command exit
// nonzero.
func verify(names []string, cfg experiments.Config, opts dsgl.Options) error {
	if len(names) == 0 {
		names = append(dsgl.DatasetNames(), dsgl.MultiDatasetNames()...)
	}
	failed := 0
	for _, name := range names {
		ds, err := dsgl.NewDataset(name, dsgl.DatasetConfig{N: cfg.N, T: cfg.T, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		model, err := dsgl.Train(ds, opts)
		if err != nil {
			return fmt.Errorf("%s: train: %w", name, err)
		}
		rep, err := model.Verify(dsgl.VerifyOptions{Windows: cfg.EvalWindows, Workers: cfg.Workers})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("%s:\n", name)
		rep.Fprint(os.Stdout)
		if !rep.Ok() {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d/%d datasets violated invariants", failed, len(names))
	}
	fmt.Printf("\nall invariants hold on %d dataset(s)\n", len(names))
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `dsgl — regenerate the DS-GL (ISCA 2024) evaluation

usage: dsgl <experiment> [flags]

experiments:
  fig4     circuit-level validation: DSPU real values vs BRIM polarization
  fig10    RMSE vs coupling-matrix density per interconnect pattern
  fig11    best RMSE vs inference-latency budget
  fig12    RMSE vs inter-mapping synchronization interval
  fig13    RMSE vs density under analog noise
  table1   hardware cost comparison (BRIM / DSPU / DS-GL)
  table2   RMSE comparison with the GNN baselines
  table3   latency & energy vs accelerators and GPU
  table4   multi-dimensional datasets (housing, climate)
  all      everything above, in paper order
  inspect  train one dataset and dump the compiled PE/CU mapping
  eval     train one dataset and report test-split RMSE/MAE/latency
           (honors -backend: compare dense vs scalable end to end)
  verify   train on the named (default: all) datasets and check the
           ten runtime invariants; nonzero exit on any violation
  opt      solve a Gset-style MaxCut instance on the Ising backends
           (own flags: see 'dsgl opt -h'; -dynamics brim|metropolis|oim)
  list     print experiment ids

flags: -n, -t, -eval, -gnn-epochs, -seed, -workers, -backend,
       -decompose, -classes, -class-mode, -obs-addr, -obs-linger
       (see 'dsgl <exp> -h'; -backend accepts "scalable" or "dense";
       -decompose trains eval/verify/inspect models with per-class
       interaction blocks, K set by -classes;
       -obs-addr serves /metrics, /metricsz, and pprof during the run)`)
}
