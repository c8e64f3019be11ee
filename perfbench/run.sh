#!/usr/bin/env bash
# Builds the PEATS benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload kv --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build and run artefact (Go build
# cache, binary, temporary data directories, span dumps, reports) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/perfbench"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/perfbench"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/perfbench"

(cd perfbench && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" "$@"
