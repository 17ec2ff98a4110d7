#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Everything the Go toolchain
# writes — build cache, temporary files, the daemons' binaries and the
# runs' scratch data — stays under .bench_build in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
cd "$root/benchmark"
exec go run . -root "$root" "$@"
