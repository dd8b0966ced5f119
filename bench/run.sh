#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload stock-daily --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# benchmark's outputs (metrics.json, trace-<workload>.json, the runs'
# stores) all stay under $CARGO_TARGET_DIR (default .bench_build), and the
# Go toolchain is kept offline.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"

# XDG_CONFIG_HOME and GOTMPDIR keep the toolchain's telemetry counters and
# scratch files in the build directory too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" -out "$build/out" "$@"
