#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ of the checkout (Go's build cache and temp files are kept
# there too, so nothing is read or written outside the checkout) and runs it.
# Usage, from the repository root:
#   bash benchmark/run.sh --workload serve_cold --seed 42 --seconds 10 --trace 0
#   bash benchmark/run.sh                 # every workload, untraced + traced
#   bash benchmark/run.sh -sets 2 -check  # repeatability gate
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/graphite-benchmark" . >&2
exec "$build/graphite-benchmark" -out "$here/out" "$@"
