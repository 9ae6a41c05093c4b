package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"max_rss_mb", "MB"},
	{"success_ratio", "fraction"},
}

// perLayer are the metrics a traced run prints, on every workload. A
// layer the workload does not run reads 0.
var perLayer = []metricDef{
	{"datasets.generate_ms", "ms"},
	{"train.lambda_grid_ms", "ms"},
	{"train.ridge_ms", "ms"},
	{"train.masked_ridge_ms", "ms"},
	{"community.prune_ms", "ms"},
	{"community.louvain_ms", "ms"},
	{"community.redistribute_ms", "ms"},
	{"pattern.mask_ms", "ms"},
	{"scalable.build_ms", "ms"},
	{"engine.plan_compile_ms", "ms"},
	{"scalable.steps_per_window", "count"},
	{"scalable.ns_per_step", "ns"},
	{"scalable.switches_per_window", "count"},
	{"scalable.settled_ratio", "fraction"},
	{"scalable.couplings", "count"},
	{"mat.ns_per_coupling_step", "ns"},
	{"mat.bytes_per_step", "B"},
	{"pool.efficiency", "fraction"},
	{"engine.plan_hit_ratio", "fraction"},
	{"serve.request_ms", "ms"},
	{"serve.engine_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"serve.mean_batch", "count"},
	{"serve.coalesced_ratio", "fraction"},
	{"engine.warm_steps_p50", "count"},
	{"engine.long_tick_ratio", "fraction"},
	{"engine.same_tick_ms", "ms"},
	{"engine.shift_tick_ms", "ms"},
	{"engine.plan_delta_hit_ratio", "fraction"},
	{"engine.cold_tick_ms", "ms"},
	{"opt.parse_ms", "ms"},
	{"opt.lower_ms", "ms"},
	{"engine.restart_ms", "ms"},
	{"ising.ns_per_spin_step", "ns"},
	{"pool.opt_efficiency", "fraction"},
	{"opt.cut", "value"},
	{"opt.restarts_to_best", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.alloc_kb_per_op", "KB"},
	{"trace.overhead_ratio", "fraction"},
}

// workload is one input set the benchmark can drive.
type workload struct {
	// tail is the percentile tail_ms reports, fixed per workload so that
	// it leaves at least minBeyond samples above it in every span, even on
	// a host three times slower than usual, and sits inside one group of
	// similar ops; spans is the number of equal spans the timed phase is
	// cut into for it (see report.latencies and the package doc).
	tail  float64
	spans int
	run   func(rc *runConfig, rep *report) error
}

var workloads = map[string]workload{
	"eval-traffic48":   {tail: 0.75, spans: 1, run: runEval},
	"serve-traffic16":  {tail: 0.75, spans: 5, run: runServe},
	"stream-traffic16": {tail: 0.995, spans: 3, run: runStream},
	"maxcut-g800":      {tail: 0.75, spans: 5, run: runMaxcut},
}

// runConfig is what a workload receives from the command line.
type runConfig struct {
	name    string
	seed    uint64
	seconds time.Duration
	tail    float64
	spans   int
	// tr is non-nil on a traced run, which replaces the timed phase by a
	// fixed op sequence run twice, untraced then traced.
	tr *tracer
}

// rng is the workload's input generator: the same seed gives the same
// inputs. salt separates independent streams drawn from one seed.
func (rc *runConfig) rng(salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(rc.seed, salt))
}

// report collects a run's outcome.
type report struct {
	attempted, failed int
	// mismatches lists failed output checks; any makes the run incorrect.
	mismatches []string
	values     map[string]float64
	samples    map[string]int
	// record holds facts printed beside the metrics: op counts, tail
	// placement, runtime counters.
	record map[string]any
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}, record: map[string]any{}}
}

// set records a metric value and the number of samples behind it.
func (r *report) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

// setGC records the runtime's work over the traced run's untraced pass.
func (r *report) setGC(d gcDelta, ops int) {
	r.set("go.gc_cycles", d.Cycles, ops)
	r.set("go.gc_pause_ms", d.PauseMs, ops)
	r.set("go.alloc_kb_per_op", d.AllocKBPer, ops)
}

// mismatch records a failed output check.
func (r *report) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// opLog is a timed phase's per-op record: each op's latency in ms
// (failedMs when it failed) and when it began, counted from the start of
// the phase.
type opLog struct {
	ms []float64
	at []time.Duration
}

func (l *opLog) add(at time.Duration, ms float64) {
	l.ms = append(l.ms, ms)
	l.at = append(l.at, at)
}

// latencies sets p50_ms, the median over every op, and tail_ms: the run's
// timed phase is cut into rc.spans equal spans by op start, each span's
// tail percentile is taken, and tail_ms is their median. A burst of host
// interference then spoils one span's tail, not the run's. It fails when a
// span's tail leaves fewer than minBeyond samples above it.
func (r *report) latencies(rc *runConfig, log opLog, length time.Duration) error {
	if len(log.ms) == 0 {
		return fmt.Errorf("no ops completed")
	}
	all := append([]float64(nil), log.ms...)
	p50, _ := quantile(all, 0.5)
	bySpan := make([][]float64, rc.spans)
	for i, at := range log.at {
		b := min(int(int64(at)*int64(rc.spans)/int64(length)), rc.spans-1)
		bySpan[b] = append(bySpan[b], log.ms[i])
	}
	tails := make([]float64, rc.spans)
	fewest := len(log.ms)
	for b, x := range bySpan {
		if len(x) == 0 {
			return fmt.Errorf("span %d of %d holds no ops", b, rc.spans)
		}
		v, beyond := quantile(x, rc.tail)
		if beyond < minBeyond {
			return fmt.Errorf("p%g of span %d (%d ops) leaves %d samples beyond it, want at least %d",
				100*rc.tail, b, len(x), beyond, minBeyond)
		}
		tails[b] = v
		fewest = min(fewest, beyond)
	}
	r.set("p50_ms", p50, len(log.ms))
	r.set("tail_ms", median(tails), len(log.ms))
	r.record["tail_percentile"] = rc.tail
	r.record["tail_spans_ms"] = tails
	r.record["fewest_beyond_tail"] = fewest
	// The whole run's shape around the tail, for placing the percentile
	// inside one group of similar ops.
	shape := map[string]float64{}
	for _, q := range []float64{0.75, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999} {
		if v, beyond := quantile(all, q); beyond >= minBeyond {
			shape[fmt.Sprintf("p%g", 100*q)] = v
		}
	}
	r.record["latency_ms"] = shape
	return nil
}

// timeSetups runs fn reps times and returns the median wall time in
// seconds. The program's set-up is the least steady figure on a shared
// host, so one run takes several and reports their median. Each starts
// from a collected heap, as a fresh process would.
func timeSetups(reps int, fn func(rep int) error) (float64, error) {
	secs := make([]float64, reps)
	for i := range secs {
		runtime.GC()
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		secs[i] = time.Since(start).Seconds()
	}
	return median(secs), nil
}

// maxRSSMB is the process's peak resident set size so far. Workloads read
// it as their timed phase ends, before the output checks run.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: eval-traffic48, serve-traffic16, stream-traffic16, maxcut-g800")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics; 0 = untraced run printing end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	rc := &runConfig{name: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), tail: w.tail, spans: w.spans}
	if *trace == 1 {
		rc.tr = newTracer()
	}
	rep := newReport()
	if err := w.run(rc, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if rc.tr != nil {
		defs = perLayer
		rc.tr.fillSelf()
		rc.tr.summarize(stderr)
		path := fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", *name, *seed)
		if err := rc.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		rep.record["span_log"] = path
		rep.record["spans"] = len(rc.tr.spans)
	} else {
		rep.set("success_ratio", 1-ratio(float64(rep.failed), float64(rep.attempted)), rep.attempted)
	}
	if err := emit(stdout, stderr, rc, rep, defs); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if len(rep.mismatches) > 0 {
		return 1
	}
	return 0
}

// parallel runs fn(0), ..., fn(n-1) on up to workers goroutines and
// returns when all have finished.
func parallel(workers, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// emit prints the record line (environment, sample counts, checks) and
// then, as the last line of stdout, the result object.
func emit(stdout, stderr io.Writer, rc *runConfig, rep *report, defs []metricDef) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	type recorded struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int     `json:"samples"`
	}
	metrics := make(map[string]metric, len(defs))
	withSamples := make(map[string]recorded, len(defs))
	for _, d := range defs {
		v := rep.values[d.name]
		metrics[d.name] = metric{Value: v, Unit: d.unit}
		withSamples[d.name] = recorded{Value: v, Unit: d.unit, Samples: rep.samples[d.name]}
		fmt.Fprintf(stderr, "%-30s %16.6g %-8s samples=%d\n", d.name, v, d.unit, rep.samples[d.name])
	}
	for _, m := range rep.mismatches {
		fmt.Fprintf(stderr, "CHECK FAILED: %s\n", m)
	}
	rep.record["workload"] = rc.name
	rep.record["seed"] = rc.seed
	rep.record["seconds"] = rc.seconds.Seconds()
	rep.record["traced"] = rc.tr != nil
	rep.record["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.record["nproc"] = runtime.NumCPU()
	rep.record["go"] = runtime.Version()
	rep.record["metrics"] = withSamples
	rep.record["mismatches"] = rep.mismatches
	rec, err := json.Marshal(map[string]any{"record": rep.record})
	if err != nil {
		return fmt.Errorf("encode record: %w", err)
	}
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.mismatches) == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", rec, res)
	return err
}
