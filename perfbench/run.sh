#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing every
# argument through; run it from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
