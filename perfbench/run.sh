#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments:
#
#   bash perfbench/run.sh --workload full-wire --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The build cache and the binary go
# under $CARGO_TARGET_DIR (default .bench_build), so nothing is read or
# written outside the checkout but the Go toolchain itself.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/perfbench"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/gotmp"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOWORK=off
export GOENV=off
export GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"

(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" -out "$out/perfbench" "$@"
