# Developer entry points for the DS-GL reproduction. Everything is plain
# `go` underneath; the targets just pin the flags CI and the README quote.

GO ?= go

.PHONY: all build vet lint test race bench serve-bench verify experiments loc clean

all: lint build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is the static gate CI runs: gofmt must report nothing to rewrite,
# then staticcheck when it is installed (CI installs it; local runs degrade
# to go vet so the target works offline with a bare toolchain).
lint:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needs to rewrite:"; echo "$$fmtout"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; falling back to go vet"; \
		$(GO) vet ./...; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# verify trains the standard pipeline on every built-in dataset and checks
# the nine runtime invariants (listed in verify.go, beside Verify).
# The second line runs the decomposed pipeline itself (K>1 classes on a
# heterogeneous workload) through the same harness; the third runs every
# dataset on the dense single-PE backend. Nonzero exit on any violation;
# small -n keeps it CI-cheap.
verify:
	$(GO) run ./cmd/dsgl verify -n 16 -eval 8
	$(GO) run ./cmd/dsgl verify heteromix -n 16 -eval 8 -decompose -classes 3
	$(GO) run ./cmd/dsgl verify -backend dense -n 16 -eval 8

# experiments regenerates experiments_output.txt, the console output that
# EXPERIMENTS.md's numbers are read from: every artifact in paper order
# (dsgl all), with the flags the committed file was produced with (-eval 20;
# -n 32, -gnn-epochs 12 and -seed 7 are the CLI defaults). It takes about
# half an hour on a 2-vCPU host, so CI does not run it. A change that moves
# a reported number runs it and updates EXPERIMENTS.md in the same change.
experiments:
	$(GO) run ./cmd/dsgl all -eval 20 > experiments_output.txt

# loc prints the Go line counts outside perfbench/ (the benchmark module):
# every non-test line, non-test code only (non-blank lines that are not //
# comments), and every test line. Untracked files that git does not ignore
# count too.
loc:
	@files=$$(git ls-files --cached --others --exclude-standard '*.go' | grep -v '^perfbench/'); \
	src=$$(echo "$$files" | grep -v '_test\.go$$'); tests=$$(echo "$$files" | grep '_test\.go$$'); \
	echo "total $$(cat $$src | wc -l)"; \
	echo "code  $$(cat $$src | grep -v -e '^[[:space:]]*$$' -e '^[[:space:]]*//' | wc -l)"; \
	echo "test  $$(cat $$tests | wc -l)"

# bench runs the batch-inference benchmarks in steady state at one and two
# Ps (-cpu=1,2, so rows at two Ps carry a -2 suffix) and captures the full
# -json event stream (benchmark results ride in "output" events) as
# BENCH_infer.json for machine consumption, while benchfmt renders the
# human-readable table on stdout. BENCH_opt.json holds the MaxCut
# solver rows and the Gset parse rows; they run for a second each, not a
# fixed count, because a row under 10 ms reads high over a handful of
# iterations. BENCH_train.json holds one Train per traffic size
# N = 24..192, with each stage's time as a <stage>-ms metric.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkInfer(Batch|With|Plan|Fresh|Observer|Stream)|BenchmarkEvaluateParallel' \
		-benchmem -benchtime=10x -cpu=1,2 -json . | tee BENCH_infer.json | \
		$(GO) run ./cmd/benchfmt -guard
	@echo "wrote BENCH_infer.json"
	$(GO) test -run '^$$' -bench 'BenchmarkOptSolve|BenchmarkParseGset' \
		-benchmem -benchtime=1s -json . | tee BENCH_opt.json | \
		$(GO) run ./cmd/benchfmt -guard
	@echo "wrote BENCH_opt.json"
	$(GO) test -run '^$$' -bench 'BenchmarkTrain$$' \
		-benchmem -benchtime=3x -json . | tee BENCH_train.json | \
		$(GO) run ./cmd/benchfmt
	@echo "wrote BENCH_train.json"

# serve-bench drives the serving layer with the synthetic open-loop load
# generator (heavy-tail Pareto arrivals, two offered-QPS points) and
# captures the p50/p99 + QPS report as BENCH_serve.json, rendered to a
# console table via benchfmt -serve (which fails the run when a QPS point
# completes zero requests). Small -n keeps the boot-time training CI-cheap.
serve-bench:
	$(GO) run ./cmd/dsgld -loadtest -n 16 -qps 150,600 -load-duration 2s | \
		tee BENCH_serve.json | $(GO) run ./cmd/benchfmt -serve
	@echo "wrote BENCH_serve.json"

clean:
	rm -f BENCH_infer.json BENCH_opt.json BENCH_train.json BENCH_serve.json
