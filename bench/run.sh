#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout. Everything the Go toolchain writes (build
# cache, module cache, telemetry counters) goes under .bench_build in
# the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
