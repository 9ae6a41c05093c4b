// Command dsgld is the DS-GL inference daemon: it trains or loads models
// into a registry and serves them over HTTP/JSON with cross-request dynamic
// batching, per-tenant rate limiting, bounded queueing, and graceful drain
// on SIGTERM/SIGINT. Observability endpoints (/metrics, /metricsz, pprof)
// are mounted on the same listener and stay up until in-flight requests
// have drained.
//
// Usage:
//
//	dsgld -addr :8080 -train traffic            # train at boot and serve
//	dsgld -snapshot fast=model.dsgl@traffic     # serve a saved snapshot
//	dsgld -loadtest -qps 150,600                # open-loop bench, JSON out
//
// Quickstart round trip against a running daemon:
//
//	curl -s localhost:8080/v1/example?model=traffic > req.json
//	curl -s -d @req.json localhost:8080/v1/infer
//
// Consecutive windows of one series stream over /v1/stream (open with
// "model", tick with the returned "session", end with "close"): each tick
// warm-starts from the previous tick's equilibrium, so slowly varying
// series settle in far fewer anneal steps than stateless /v1/infer pays.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dsgl"
	"dsgl/internal/serve"
)

// main is a thin shell around realMain — the same pattern as cmd/dsgl:
// os.Exit skips deferred functions, so every error path returns an exit
// code instead of exiting directly, and cleanup (drain, obs shutdown)
// always runs.
func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	fs := flag.NewFlagSet("dsgld", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address (use 127.0.0.1:0 for a random port; the bound address is printed on stdout)")
	trainList := fs.String("train", "traffic", "comma-separated datasets to train and register at boot (empty = none)")
	snapshots := fs.String("snapshot", "", "comma-separated snapshots to load, each name=path@dataset (the dataset is regenerated from -n/-t/-seed and must match the one the snapshot was trained on)")
	n := fs.Int("n", 32, "graph nodes per trained dataset")
	t := fs.Int("t", 0, "series length (0 = dataset default)")
	seed := fs.Uint64("seed", 7, "dataset and training seed")
	backend := fs.String("backend", dsgl.BackendScalable, "inference backend for boot-trained models")
	workers := fs.Int("workers", 0, "engine worker pool for coalesced batches (0 = GOMAXPROCS)")

	batchWindow := fs.Duration("batch-window", 2*time.Millisecond, "dynamic-batching coalescing window (negative disables batching)")
	maxBatch := fs.Int("max-batch", 32, "flush a batch group at this many requests")
	maxQueue := fs.Int("max-queue", 1024, "bound on requests pending across batch groups (503 beyond)")
	rate := fs.Float64("rate", 0, "per-tenant token-bucket rate in requests/second (0 = unlimited)")
	burst := fs.Float64("burst", 0, "per-tenant burst capacity (0 = one second of -rate)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "bound on waiting for in-flight requests at shutdown")
	streamTTL := fs.Duration("stream-ttl", time.Minute, "evict /v1/stream sessions idle longer than this")
	maxStreams := fs.Int("max-streams", 256, "bound on concurrently open /v1/stream sessions (503 beyond)")

	loadtest := fs.Bool("loadtest", false, "run the open-loop load generator in-process instead of serving, and print LoadReport JSON on stdout")
	qpsList := fs.String("qps", "150,600", "loadtest: comma-separated offered-QPS points")
	loadDur := fs.Duration("load-duration", 2*time.Second, "loadtest: duration per QPS point")
	alpha := fs.Float64("alpha", 1.5, "loadtest: Pareto tail index of inter-arrival gaps (smaller = burstier)")
	tenants := fs.Int("tenants", 4, "loadtest: synthetic tenants to spread requests across")
	loadSeed := fs.Uint64("load-seed", 11, "loadtest: arrival-process seed")
	loadModel := fs.String("load-model", "", "loadtest: model to drive (default: first registered)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// A request costs one token, so a bucket that holds less sheds every
	// request, and a rate or burst that is not finite limits none.
	if !(*rate >= 0 && *rate <= math.MaxFloat64) {
		fmt.Fprintf(os.Stderr, "dsgld: -rate %g must be a finite value >= 0\n", *rate)
		return 2
	}
	if *burst != 0 && !(*burst >= 1 && *burst <= math.MaxFloat64) {
		fmt.Fprintf(os.Stderr, "dsgld: -burst %g must be 0 or a finite value >= 1\n", *burst)
		return 2
	}

	dsgl.EnableMetrics()

	reg := serve.NewRegistry()
	if *trainList != "" {
		for _, name := range strings.Split(*trainList, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			start := time.Now()
			ds, err := dsgl.NewDataset(name, dsgl.DatasetConfig{N: *n, T: *t, Seed: *seed})
			if err != nil {
				fmt.Fprintf(os.Stderr, "dsgld: %v\n", err)
				return 1
			}
			model, err := dsgl.Train(ds, dsgl.Options{Backend: *backend, Seed: *seed, Workers: *workers})
			if err != nil {
				fmt.Fprintf(os.Stderr, "dsgld: train %s: %v\n", name, err)
				return 1
			}
			if _, err := reg.Register(name, model); err != nil {
				fmt.Fprintf(os.Stderr, "dsgld: %v\n", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "dsgld: trained and registered %q (%s backend) in %v\n",
				name, *backend, time.Since(start).Round(time.Millisecond))
		}
	}
	if *snapshots != "" {
		for _, spec := range strings.Split(*snapshots, ",") {
			name, path, dataset, err := parseSnapshotSpec(spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dsgld: %v\n", err)
				return 2
			}
			ds, err := dsgl.NewDataset(dataset, dsgl.DatasetConfig{N: *n, T: *t, Seed: *seed})
			if err != nil {
				fmt.Fprintf(os.Stderr, "dsgld: %v\n", err)
				return 1
			}
			if _, err := reg.LoadSnapshot(name, path, ds); err != nil {
				fmt.Fprintf(os.Stderr, "dsgld: %v\n", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "dsgld: loaded snapshot %q from %s\n", name, path)
		}
	}
	if reg.Len() == 0 {
		fmt.Fprintln(os.Stderr, "dsgld: no models registered (use -train and/or -snapshot)")
		return 2
	}

	srv := serve.New(reg, serve.Config{
		BatchWindow:  *batchWindow,
		MaxBatch:     *maxBatch,
		MaxQueue:     *maxQueue,
		RatePerSec:   *rate,
		Burst:        *burst,
		Workers:      *workers,
		DrainTimeout: *drainTimeout,
		StreamTTL:    *streamTTL,
		MaxStreams:   *maxStreams,
	})

	if *loadtest {
		return runLoadtest(srv, reg, *loadModel, *qpsList, *loadDur, *alpha, *tenants, *loadSeed)
	}

	bound, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsgld: %v\n", err)
		return 1
	}
	// The bound address goes to stdout so scripts (CI smoke) can pick up a
	// random port; everything else logs to stderr.
	fmt.Printf("dsgld listening on http://%s (models: %s)\n", bound, strings.Join(reg.Names(), ", "))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	s := <-sig
	fmt.Fprintf(os.Stderr, "dsgld: %v received, draining (in-flight finishes, new requests get 503)\n", s)
	sessions := srv.StreamCount()
	if err := srv.Drain(); err != nil {
		fmt.Fprintf(os.Stderr, "dsgld: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "dsgld: drained cleanly (%d stream sessions closed)\n", sessions)
	return 0
}

// parseSnapshotSpec splits one -snapshot item, name=path@dataset.
func parseSnapshotSpec(spec string) (name, path, dataset string, err error) {
	spec = strings.TrimSpace(spec)
	name, rest, ok := strings.Cut(spec, "=")
	if ok {
		path, dataset, ok = strings.Cut(rest, "@")
	}
	if !ok || name == "" || path == "" || dataset == "" {
		return "", "", "", fmt.Errorf("bad -snapshot %q, want name=path@dataset", spec)
	}
	return name, path, dataset, nil
}

// runLoadtest drives the open-loop generator at each offered QPS point and
// prints the reports as a JSON array on stdout — `make serve-bench` tees
// that into BENCH_serve.json and renders it with `benchfmt -serve`.
func runLoadtest(srv *serve.Server, reg *serve.Registry, model, qpsList string, dur time.Duration, alpha float64, tenants int, seed uint64) int {
	if model == "" {
		model = reg.Names()[0]
	}
	var reports []*serve.LoadReport
	for _, f := range strings.Split(qpsList, ",") {
		qps, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsgld: bad -qps entry %q: %v\n", f, err)
			return 2
		}
		rep, err := serve.RunLoad(srv, serve.LoadConfig{
			Model:    model,
			QPS:      qps,
			Duration: dur,
			Alpha:    alpha,
			Seed:     seed,
			Tenants:  tenants,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsgld: loadtest: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "dsgld: loadtest %s @ %g qps: ok=%d shed=%d p50=%.2fms p99=%.2fms mean-batch=%.2f\n",
			model, qps, rep.OK, rep.Shed, rep.P50Ms, rep.P99Ms, rep.MeanBatch)
		reports = append(reports, rep)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reports); err != nil {
		fmt.Fprintf(os.Stderr, "dsgld: %v\n", err)
		return 1
	}
	return 0
}
