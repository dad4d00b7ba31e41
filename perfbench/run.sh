#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# arguments given, e.g.
#
#   bash perfbench/run.sh --workload paper_bulk --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write (Go build cache, temporary files,
# run-logs, span files) stays under .bench_build/ at the checkout root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/work"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

go -C "$here" build -o "$build/perfbench" .
exec "$build/perfbench" --workdir "$build/work" "$@"
