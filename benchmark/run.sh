#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json "command"): build skybench from source
# with every toolchain cache inside the checkout, then run it with the
# driver's arguments. Run from the repository root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/skybench" ./skybench
exec "$build/skybench" "$@"
