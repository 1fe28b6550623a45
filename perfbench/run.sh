#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of an
# impeccable checkout:
#
#   bash perfbench/run.sh --workload tail-small --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under ./.bench_build:
# the Go build cache, the binary, temp files and the coordinator state
# dirs (removed when a run ends).
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/service || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of an impeccable checkout (go.mod, internal/ and perfbench/ are needed)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
