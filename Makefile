# Developer entry points for the DS-GL reproduction. Everything is plain
# `go` underneath; the targets just pin the flags CI and the README quote.

GO ?= go

.PHONY: all build vet lint test race bench serve-bench verify loc clean

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
# the ten runtime invariants (listed in the internal/verify package doc).
# The second line runs the decomposed pipeline itself (K>1 classes on a
# heterogeneous workload) through the same harness; the third runs every
# dataset on the dense single-PE backend. Nonzero exit on any violation;
# small -n keeps it CI-cheap.
verify:
	$(GO) run ./cmd/dsgl verify -n 16 -eval 8
	$(GO) run ./cmd/dsgl verify heteromix -n 16 -eval 8 -decompose -classes 3
	$(GO) run ./cmd/dsgl verify -backend dense -n 16 -eval 8

# loc prints the non-test Go line count outside perfbench/ (the benchmark
# module): every line, and code only (non-blank lines that are not //
# comments). Untracked files that git does not ignore count too.
loc:
	@files=$$(git ls-files --cached --others --exclude-standard '*.go' | grep -v -e '_test\.go$$' -e '^perfbench/'); \
	echo "total $$(cat $$files | wc -l)"; \
	echo "code  $$(cat $$files | grep -v -e '^[[:space:]]*$$' -e '^[[:space:]]*//' | wc -l)"

# bench runs the batch-inference benchmarks in steady state and captures the
# full -json event stream (benchmark results ride in "output" events) as
# BENCH_infer.json for machine consumption, while the human-readable table
# still lands on stdout via BENCH_infer.txt. BENCH_opt.json holds the MaxCut
# solver rows and BENCH_train.json one Train per traffic size N = 24..192,
# with each stage's time as a <stage>-ms metric.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkInfer(Batch|With|Plan|Fresh|Observer|Sharded|Stream)|BenchmarkEvaluateParallel' \
		-benchmem -benchtime=10x -json . | tee BENCH_infer.json | \
		$(GO) run ./cmd/benchfmt -guard
	@echo "wrote BENCH_infer.json"
	$(GO) test -run '^$$' -bench 'BenchmarkOptSolve' \
		-benchmem -benchtime=5x -json . | tee BENCH_opt.json | \
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
