#!/usr/bin/env bash
# Builds jinjing, jinjingd and the benchmark runner from the checkout
# this script sits in, then hands its arguments to the runner:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything it writes — Go build cache, binaries, each run's scratch
# files — stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/run" "$build/trace"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
(cd "$root" && go build -o "$build/bin/" ./cmd/jinjing ./cmd/jinjingd)
(cd "$root/benchmark" && go build -o "$build/bin/jjbench" .)
exec "$build/bin/jjbench" -bin "$build/bin" -work "$build/run" -trace-dir "$build/trace" "$@"
