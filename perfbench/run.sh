#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes one workload:
#
#   bash perfbench/run.sh --workload serve-place --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Everything it builds, writes and caches
# stays under .bench_build/ in that root (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

# Keep the Go toolchain's caches, temporary files, config and telemetry inside
# the checkout, and never let it reach for the network.
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off
export GOFLAGS=-mod=mod GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work "$out/perfbench-work" "$@"
