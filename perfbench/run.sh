#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload fig2-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. The binary and every Go cache go
# under $CARGO_TARGET_DIR (default .bench_build), so nothing is read or
# written outside the checkout except the Go toolchain itself.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/go/cache GOMODCACHE=$build/go/mod GOPATH=$build/go/path
export XDG_CONFIG_HOME=$build/go/config GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go -C "$bench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
