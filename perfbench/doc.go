// Command perfbench is the repository's benchmark: four workloads that
// drive the DS-GL program through its modules' public functions, with
// end-to-end metrics from an untraced run and per-layer metrics from a
// separate traced run. BENCHMARK.json at the repository root lists them.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload eval-traffic48 --seed 1 --seconds 15 --trace 0
//
// or, inside perfbench/, with go run . and the same flags. perfbench is a
// module of its own (it imports the dsgl module next to it through a
// replace directive), so go build ./... at the root does not build it;
// cd perfbench && go test ./... checks its tables against BENCHMARK.json.
//
// The last line of standard output is the result object (correct,
// attempted, failed, metrics). The line before it is the record: the
// seed, GOMAXPROCS and nproc (GOMAXPROCS ignores a container's CPU quota
// before Go 1.25), the Go version, every metric with its unit and sample
// count, op counts, where the tail fell, and the runtime's GC work over
// the timed phase. Standard error has the same metrics as a table and, on
// a traced run, the span summary. A failed output check prints the result
// with "correct": false and exits 1; an error exits 1 before any result.
//
// # Steadiness
//
// The numbers must agree between two sets of runs on a shared 2-vCPU host
// whose speed drifts by 10-20% over minutes (a fixed compute loop of
// nominally 1 s took 0.82-1.36 s across repeats). So: one process; no
// sockets; no more busy goroutines than GOMAXPROCS outside the program's
// own pools; many short, similar ops per run; a warm-up op and
// runtime.GC() before each timed phase; set-up repeated and its median
// reported. A tail percentile is placed inside one group of similar ops,
// never on the edge between a fast group and a slow one, and must leave at
// least ten samples above it or the run fails. Host hiccups, not the
// program, shape the tails, so the timed phase is cut into equal spans
// (five for serve and maxcut, three for stream, one for eval, whose ops
// are longest) and tail_ms is the median of the spans' percentiles. Each
// tail leaves at least ten samples beyond it in every span with the host
// three times slower than usual: on a noisy hour one run saw a third of
// its usual throughput for seconds.
//
// The host slows a vCPU in bursts of 15-400 ms: one MaxCut parse took
// 5.3 or 7.6 ms depending on the burst. Every op of eval, serve and maxcut
// fans out over both vCPUs, and its slowest part sets its time, so on a
// noisy hour more than a tenth of ops meet a burst and p90 measures the
// host. Their tail is p75 instead: over eight seeds on a noisy hour,
// maxcut's p75 spread 18% and its p90 34%.
//
// The workloads use one fixed traffic series (trafficDataSeed): series
// generated from different seeds learn different graphs, and the cost of
// an anneal moved about 10% with them. The workload seed drives
// everything else: the model's anneal seeds, op order, request windows
// and seeds, stream offsets and the MaxCut graph.
//
// Least steady: setup_s and tail_ms. Measured on the 2-vCPU host,
// interquartile range over median across ten seeds ran 4-10% for p50_ms
// and ops_per_s in a quiet hour and up to 18% in a noisy one, and tails
// 6-18%; in the noisiest hour seen, throughput spread up to 28%, and
// once the host ran at about twice its usual speed for seven minutes,
// which no in-run measure absorbs. Even max_rss_mb moved 15% between sets
// of runs an hour apart (same binary, same seeds), so every timing and
// memory metric in BENCHMARK.json carries a 0.25 bound.
//
// # Workloads
//
// eval-traffic48: traffic at N=48 (WindowLen 384, compiled to
// temporal+spatial mode at L=30), trained with default Options. One client
// loops Model.EvaluateParallel over fixed slices of four windows per
// worker of the 567-window test split, in a seeded order. Why: the only
// workload whose set-up trains heavily (ridge on 384-dimensional windows
// dominates setup_s), and whose timed work is nothing but cold anneals
// under one cached clamp plan: no JSON, no warm start, no plan churn, so
// kernel, step-count and pool changes show here first. Four windows per
// worker let the pool move work off a slowed vCPU within an op; with one,
// every op waits on the slower vCPU, and on a noisy hour ops_per_s spread
// 29% against 19%. Tail: p75 over the whole run.
//
// serve-traffic16: the N=16 model booted as dsgld boots it
// (dsgl.EnableMetrics, dsgl.Train, serve.Registry.Register, which warms
// the plan, and the default serve.Config), then 8 closed-loop callers,
// each sending its next pre-encoded /v1/infer body (a seeded test window
// and an explicit seed) through Server.Handler().ServeHTTP when the last
// is answered. Why: JSON, admission, the 2 ms batch window and coalescing
// are a large share of each request, and 8 callers keep a batch forming
// while another anneals. An open loop of Poisson arrivals at 50, 100 and
// 250 requests/s, timed from each arrival's due time, was tried first:
// across five seeds its p50 spread (interquartile range over median) ran
// 7-41% and its tails 36-60%, because a server idling between arrivals
// waits on timer wake-ups that the host's load delays, and near capacity
// queueing amplifies the host's drift. One and two callers were tried
// too: their tails spread 21% and 43% over six seeds, against 13% for
// eight, since a host stall of a few milliseconds is a larger share of a
// 7 ms request than of a 22 ms one. Tail: p75, span median. On a quiet
// host the latencies form two groups: requests that join a batch already
// forming (12-20 ms, about 45%) and requests that wait out a whole batch
// cycle (21-24 ms, about 50%). p75 lies inside the upper group; p90 sits
// on its upper edge, where host stalls set the value. Over 14 runs p90
// spread 12% and p75 6%, and a set of ten runs on a noisy host spread
// p90 by 26%.
//
// stream-traffic16: the same N=16 model; two sessions opened with
// Model.OpenStream, each a closed-loop client ticking
// StreamSession.NextObservations over the sliding-coverage sequence of
// bench_test.go's benchStreamSetup: 8 interpolated sub-ticks per window and
// a half-width clamp block sliding one index per window, the sessions
// half a sequence apart so they hold different patterns. Why: warm-start
// anneals and plan delta-compilation do most of the work here and none
// elsewhere; a new pattern arrives every 8 ticks against an 8-entry plan
// LRU. About 0.9% of ticks take about 2,050 steps instead of about 65, at
// pattern shifts. Tail: p99.5, median over three spans, which falls
// inside that slow group (p99 sits on its edge). Each session's cold
// first tick is its warm-up op, so no cold tick is a sample; it is
// reported only as engine.cold_tick_ms.
//
// maxcut-g800: opt.RandomGraph(800, 6, false, seed) written as Gset text
// (untimed), parsed with opt.ParseGset (the set-up), then one client
// looping dsgl.SolveMaxCut with the workload seed and default OptOptions:
// metropolis dynamics, geometric schedule, 200 steps, 4 restarts, default
// workers. Why: without it ising, opt and the OptBackend half of engine
// go unmeasured; that half shares the plan cache, free list and seed
// fan-out with regression inference, so a change to the shared machinery
// that costs one user shows. Tail: p75, span median.
//
// # End-to-end metrics (untraced run)
//
//	setup_s        s         median of the set-up repeats: dataset generation
//	                         and dsgl.Train (plus Register and serve.New for
//	                         serve), or ParseGset; excludes input generation and
//	                         the warm-up op
//	ops_per_s      1/s       completed ops per second of the timed phase:
//	                         windows (eval), requests, ticks, solves
//	p50_ms         ms        median op latency: a slice evaluation, a request, a
//	                         tick, a solve
//	tail_ms        ms        the workload's tail percentile, as above; a failed op
//	                         ranks above every completed one (reads 1e9 if the
//	                         percentile lands on one)
//	max_rss_mb     MB        peak resident set size (getrusage) at the end of
//	                         the timed phase, before the output checks
//	success_ratio  fraction  1 - failed/attempted; an op fails on an error, a
//	                         non-200 status, an unsettled result or a failed
//	                         output check (the result's "failed" is the count)
//
// # Output checks
//
// Eval: every EvaluateParallel report of a slice equals sequential
// Model.Evaluate on that slice bit for bit. Serve: a seeded sample of 256
// answered requests is re-run solo with Engine().InferSeeded at the echoed
// seed and must match the response values bit for bit, batched or not.
// Stream: each session's ticks are replayed through a fresh OpenStream and
// must reproduce its voltages bit for bit. MaxCut: every solve returns the
// cut and best energy of the same solve on one worker.
//
// # Traced run
//
// With --trace 1 the timed phase becomes a fixed op sequence run twice,
// untraced then traced, so counts repeat exactly at a given seed and
// trace.overhead_ratio is the traced pass's wall time over the untraced
// one's, minus one. End-to-end metrics come only from untraced runs.
// Spans (name, start, end, parent, op id) are recorded from perfbench's
// side of each call, kept in memory and written once to
// .bench_build/spans-<workload>-<seed>.jsonl; a span's
// self time is its length minus the union of its children. The traffic
// workloads replay dsgl.Train stage by stage through the layers' public
// functions and fail unless the replay picks the same ridge lambda and
// reproduces Train's dense and tuned parameters bit for bit; the MaxCut
// replay must reach SolveMaxCut's energies. Counters the program keeps
// (PlanCacheStats, PlanDeltaStats, dsgl.MetricsSnapshot) are read as
// deltas. Every traced run prints every per-layer metric; a layer the
// workload does not run reads 0.
//
// # Per-layer metrics and what they move
//
//	datasets.generate_ms            dsgl.NewDataset              setup_s, traffic workloads
//	train.lambda_grid_ms            5 RidgeInit fits on the pool setup_s, eval
//	train.ridge_ms                  RidgeInit at chosen lambda   setup_s, eval
//	train.masked_ridge_ms           MaskedRidge                  setup_s, eval
//	community.prune_ms              PruneToDensity+weights       setup_s, eval
//	community.louvain_ms            Louvain                      setup_s, eval
//	community.redistribute_ms       Redistribute                 setup_s, eval
//	pattern.mask_ms                 BuildMask + support mask     setup_s, eval
//	scalable.build_ms               scalable.Build               setup_s, eval
//	engine.plan_compile_ms          first EnsurePlan             setup_s, eval and serve
//	scalable.steps_per_window       Result.Steps, solo InferWith ops_per_s, eval (fewer steps)
//	scalable.ns_per_step            solo wall / steps            ops_per_s eval, p50 serve (cheaper steps)
//	scalable.switches_per_window    Result.Switches              ops_per_s, eval
//	scalable.settled_ratio          Result.Settled               success_ratio, all
//	scalable.couplings              Intra+Inter from Stats()     none; normalises the next two
//	mat.ns_per_coupling_step        ns_per_step / couplings      ops_per_s eval; N=16 vs N=48 is the scaling check
//	mat.bytes_per_step              24 B per stored coupling     computed, not measured
//	pool.efficiency                 solo sum / (batch x workers) ops_per_s, eval
//	engine.plan_hit_ratio           PlanCacheStats delta         p50 stream; 1.0 on eval and serve
//	serve.request_ms                p50 of the ServeHTTP span    p50, serve
//	serve.engine_ms                 dsgl_infer_wall_seconds mean p50, serve
//	serve.self_ms                   request - engine             p50, serve (admission, batch wait, JSON)
//	serve.mean_batch                responses' batch_size        p50 and tail, serve
//	serve.coalesced_ratio           share with batch_size > 1    p50 and tail, serve
//	engine.warm_steps_p50           Result.Steps of warm ticks   p50, stream
//	engine.long_tick_ratio          warm ticks > 10x median      tail, stream
//	engine.same_tick_ms             p50 of pattern-keeping ticks p50, stream
//	engine.shift_tick_ms            p50 of pattern-shifting ticks tail, stream
//	engine.plan_delta_hit_ratio     PlanDeltaStats delta         tail, stream
//	engine.cold_tick_ms             first tick of each session   none by design; guards cold cost
//	opt.parse_ms                    opt.ParseGset                setup_s, maxcut
//	opt.lower_ms                    Instance.ToIsing             ops_per_s, maxcut
//	engine.restart_ms               one OptEngine.SolveSeeded    ops_per_s, maxcut
//	ising.ns_per_spin_step          restart / (steps x nodes)    ops_per_s, maxcut
//	pool.opt_efficiency             restarts x restart / (SolveFrom x workers)  ops_per_s, maxcut
//	opt.cut, opt.restarts_to_best   OptReport                    none; a quality guard
//	go.gc_cycles, go.gc_pause_ms,   runtime.ReadMemStats around  tail all; max_rss_mb all
//	go.alloc_kb_per_op              the untraced pass
//	trace.overhead_ratio            traced / untraced pass - 1   none; validity of the spans
//
// Left for later: the dense backend (dspu), heterogeneous decomposition
// (hetero) and the sharded anneal (ShardWorkers > 1) are off the default
// paths and unmeasured here.
package main
