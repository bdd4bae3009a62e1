#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the
# checkout it is started in (the repository root) and runs it there.
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
# The Go tool would otherwise write its build cache, temporary files and
# telemetry counters under $HOME and /tmp.
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
go build -C "$root/benchmark" -o "$build/deeplens-benchmark" .
exec "$build/deeplens-benchmark" "$@"
