#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json "command"): builds the
# benchmark binary from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the build
# and the run write (Go build cache, temporaries, scratch store
# directories) stays under .bench_build/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gotmp" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -buildvcs=false -o "$build/qgear-benchmark" .)
exec "$build/qgear-benchmark" --tmp "$build/tmp" "$@"
