#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload eval-traffic48 --seed 1 --seconds 15 --trace 0
#
# The Go build cache, module cache, temporary files, the go command's own
# config and telemetry, and the binary stay under .bench_build/ at the
# root of the checkout, so a run writes nothing outside it. Without the
# dsgl module next to perfbench/ the build fails and the script exits
# non-zero before printing any result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
