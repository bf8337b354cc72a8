#!/bin/sh
# Builds and runs the benchmark from a bare checkout, keeping everything
# the Go toolchain writes (build cache, temp files, telemetry) inside the
# checkout, under .bench_build/. Arguments go to the program unchanged:
#
#   sh bench/run.sh --workload point-hit-bare --seed 1 --seconds 8 --trace 0
set -e
bench=$(cd "$(dirname "$0")" && pwd)
build=$(dirname "$bench")/.bench_build
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
cd "$bench"
go build -o "$build/bench" .
exec "$build/bench" "$@"
