#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments; see perfbench/README.md. Run from the repository root:
#
#   bash perfbench/run.sh --workload batch-poi --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and scratch data all live under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
out="$(cd "$out" && pwd)"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# inside the build directory too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
