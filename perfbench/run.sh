#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload query-cold --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds and writes stays in
# .bench_build/ under the root: the Go build cache, the binary, the stores
# it measures and the traced run's span files.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# The Go command's caches and its telemetry counters (under the user config
# directory) are redirected into the build directory too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
