#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source into
# the checkout's own .bench_build directory (Go's caches included, so nothing
# is written outside the checkout), then run one workload:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The last line of standard output is the result object; everything else
# (the per-metric lines, go's build output) goes to standard error.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/bench" ./bench >&2
exec "$build/bench" measure "$@"
