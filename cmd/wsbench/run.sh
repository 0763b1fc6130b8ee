#!/usr/bin/env bash
# Builds wsbench with every build output inside the checkout and runs it
# with the given arguments; this is the command BENCHMARK.json names. The
# bench builds cmd/wsmessenger itself, into the same .bench_build directory
# and, through the exported variables, with the same in-checkout Go caches.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build=$(cd "$here/../.." && pwd)/.bench_build
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
go build -C "$here" -o "$build/wsbench" .
exec "$build/wsbench" "$@"
