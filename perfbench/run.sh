#!/usr/bin/env bash
# Builds perfbench from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload read-zipf --seed 1 --seconds 35 --trace 0
#
# The binary, the Go build cache and temporary files live under .bench_build
# in the current directory; modules resolve locally, nothing is fetched.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# XDG_CONFIG_HOME keeps the go command's own state (telemetry counters)
# under .bench_build too.
XDG_CONFIG_HOME="$build/config" go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
