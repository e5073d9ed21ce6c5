#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the repository root:
#
#   bash hostbench/run.sh --workload reconfig --seed 42 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, binary, telemetry)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C hostbench build -o "$build/hostbench" . >&2
exec "$build/hostbench" "$@"
