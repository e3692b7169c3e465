#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash perfbench/run.sh --workload read-mix --seed 1 --seconds 30 --trace 0
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ (Go build cache, binary, WAL files, span
# dumps).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config" "$build/bin"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in
# the checkout too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
# A cold build leaves hundreds of MB of cache files to write back; flush
# them now rather than during the measurement.
sync
exec "$build/bin/perfbench" "$@"
