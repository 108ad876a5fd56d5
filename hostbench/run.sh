#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with
# the given arguments. Run it from the repository root:
#
#   bash hostbench/run.sh --workload report-epc256 --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and traces stay in .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/hostbench/go.mod" ]]; then
	echo "hostbench: run from the repository root (go.mod, internal/ and hostbench/ not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/hostbench" && go build -o "$build/hostbench" .)
exec "$build/hostbench" "$@"
