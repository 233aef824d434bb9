#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#	bash _perfbench/run.sh --workload paper-full --seed 1 --seconds 25 --trace 0
#
# Every file the build and the run write lands in the build directory
# ($CARGO_TARGET_DIR, default .bench_build), including the Go build cache.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/home" "$build/tmp"
export HOME=$build/home XDG_CACHE_HOME=$build/home/.cache XDG_CONFIG_HOME=$build/home/.config
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off
go build -C "$here" -o "$build/perfbench" . >&2
exec "$build/perfbench" -workdir "$build" "$@"
