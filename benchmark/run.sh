#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it:
#
#   bash benchmark/run.sh --workload warm_hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under <checkout>/.bench_build
# (and benchmark/out for span files), including Go's build cache, so a
# checkout that is copied elsewhere builds and measures only itself. In a
# directory without the program's sources the build fails and so does this
# script, before anything is printed.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" -root "$root" "$@"
